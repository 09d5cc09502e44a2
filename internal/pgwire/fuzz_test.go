package pgwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// frame frames one frontend message in wire format.
func frame(t byte, parts ...string) []byte {
	var b bytes.Buffer
	if _, err := msg(t, parts...).WriteTo(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// frontendStreamSeeds are client streams that reach every branch of the
// splice loop and the tracker. They are also the committed seed corpus of
// FuzzFrontendStream (testdata/fuzz/FuzzFrontendStream, one file a name).
func frontendStreamSeeds() []namedStream {
	extended := bytes.Join([][]byte{
		frame(typeParse, "s1", "SELECT lake FROM WaterTemp WHERE temp > $1", "\x00"),
		frame(typeBind, "p1", "s1", "\x00\x00\x00\x00\x00"),
		frame(typeExecute, "p1\x00\x00\x00\x00"),
		frame('S'),
	}, nil)
	query := frame(typeQuery, "SELECT 1; SELECT 'a;b' FROM t; -- c;\nSELECT $$x;y$$")
	return []namedStream{
		{"multi-statement-query", query},
		{"parse-bind-execute", extended},
		{"close-then-execute", bytes.Join([][]byte{
			extended,
			frame(typeClose, "Ss1"),
			frame(typeBind, "p2", "s1", "\x00\x00\x00\x00\x00"),
			frame(typeExecute, "p2\x00\x00\x00\x00"),
			frame(typeTerminate),
		}, nil)},
		{"truncated-frame", query[:len(query)-7]},
		{"oversized-length", []byte{typeQuery, 0x40, 0, 0, 0}},
	}
}

type namedStream struct {
	name string
	data []byte
}

// FuzzFrontendStream drives the proxy's client-side path — ReadMessage, then
// the tracker — over arbitrary bytes, as spliceFrontend does. It must not
// panic; every message it reads must re-frame to exactly the bytes it
// consumed, which is what keeps the splice byte-identical; every statement
// it captures must be text the stream carried in a Query or Parse payload;
// and the tracker's name tables hold no more names than were declared.
func FuzzFrontendStream(f *testing.F) {
	for _, seed := range frontendStreamSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		trk := testTracker()
		var texts [][]byte // the Query and Parse payloads read so far
		parses, binds := 0, 0
		for consumed := 0; ; {
			m, err := ReadMessage(r)
			if err != nil {
				break
			}
			end := len(data) - r.Len()
			var again bytes.Buffer
			if _, err := m.WriteTo(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), data[consumed:end]) {
				t.Fatalf("message %q re-frames as %x, the stream carried %x", m.Type, again.Bytes(), data[consumed:end])
			}
			consumed = end
			switch m.Type {
			case typeQuery:
				texts = append(texts, m.Payload)
			case typeParse:
				texts = append(texts, m.Payload)
				parses++
			case typeBind:
				binds++
			}
			for _, c := range trk.observe(m) {
				carried := false
				for _, text := range texts {
					carried = carried || bytes.Contains(text, []byte(c.SQL))
				}
				if !carried || c.SQL == "" {
					t.Fatalf("captured %q, which no Query or Parse payload carried", c.SQL)
				}
			}
			if len(trk.statements) > parses || len(trk.portals) > binds {
				t.Fatalf("%d statements and %d portals after %d parses and %d binds", len(trk.statements), len(trk.portals), parses, binds)
			}
		}
	})
}

// TestReadMessageLengthCannotSizeAnAllocation: a header that claims the
// largest message the protocol allows, with nothing behind it, is a short
// read, and costs no more memory than the bytes really there.
func TestReadMessageLengthCannotSizeAnAllocation(t *testing.T) {
	header := binary.BigEndian.AppendUint32([]byte{typeQuery}, maxMessageBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMessage(bytes.NewReader(header))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want a short read", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Fatalf("a 5-byte stream allocated %d bytes", grown)
	}
}
