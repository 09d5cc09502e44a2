package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// encoding/json is the hand codec's oracle: AppendJSON must write the bytes
// json.NewEncoder(w).Encode writes, and DecodeJSON must accept what
// json.Unmarshal accepts and leave what it leaves.

// codecTypes names the three hand-coded response types; each test runs on
// all three.
var codecTypes = []string{"search", "submit", "batch"}

// response is a pointer to one of the three types.
type response interface {
	AppendJSON([]byte) ([]byte, error)
	DecodeJSON([]byte) error
}

// newResponse returns a zero value of the named type behind a pointer.
func newResponse(kind string) response {
	switch kind {
	case "search":
		return new(SearchResponse)
	case "submit":
		return new(SubmitResponse)
	default:
		return new(BatchSubmitResponse)
	}
}

// oracleEncode is what writeJSON sent for v before the hand codec.
func oracleEncode(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkEncodeAgrees asserts that v's AppendJSON fails exactly when
// encoding/json does and otherwise appends the same bytes.
func checkEncodeAgrees(t *testing.T, v interface{ AppendJSON([]byte) ([]byte, error) }) {
	t.Helper()
	want, wantErr := oracleEncode(v)
	got, gotErr := v.AppendJSON([]byte("prefix"))
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON error %v, encoding/json error %v, for %#v", gotErr, wantErr, v)
	}
	if wantErr == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendJSON wrote\n%s\nencoding/json wrote\n%s", got[len("prefix"):], want)
	}
}

// checkDecodeAgrees decodes data as the named type with DecodeJSON and with
// json.Unmarshal, into fresh values and into values the prefill body filled
// (so the duplicate-key and reuse rules are exercised), and asserts that both
// accept or both reject, and that on acceptance the values are DeepEqual
// and re-encode to the same bytes.
func checkDecodeAgrees(t *testing.T, kind string, data []byte) {
	t.Helper()
	for _, fill := range [][]byte{nil, prefills[kind]} {
		got, want := newResponse(kind), newResponse(kind)
		if fill != nil {
			if json.Unmarshal(fill, got) != nil || json.Unmarshal(fill, want) != nil {
				t.Fatalf("prefill body does not decode as %s", kind)
			}
		}
		gotErr, wantErr := got.DecodeJSON(data), json.Unmarshal(data, want)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s, prefilled %v: DecodeJSON error %v, json.Unmarshal error %v, on %q",
				kind, fill != nil, gotErr, wantErr, data)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, prefilled %v, on %q:\nDecodeJSON   %#v\njson.Unmarshal %#v", kind, fill != nil, data, got, want)
		}
		checkEncodeAgrees(t, got)
	}
}

// codecFixture reads one of the bodies a server answered over a
// browse_search-sized log: a 25-record keyword page, a 100-row answer and a
// batch of 32 point lookups (and one with a refused statement).
func codecFixture(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "bodies", name+".json"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// codecFixtures are the real bodies and their types; the first three are
// the benchmark's.
var codecFixtures = []struct{ name, kind string }{
	{"page", "search"}, {"answer", "submit"}, {"batch", "batch"}, {"batch_error", "batch"},
}

// prefills fill a value before a body is decoded into it: slices with spare
// capacity, a map and pointers, for a body's keys to land on.
var prefills = map[string][]byte{
	"search": []byte(`{"matches":[{"query":{"id":1,"tables":["a","b","c"],"annotations":["n"]},"why":"w"},{},{}],` +
		`"matches":[{"query":{"tables":["x"]}}],"nextCursor":"c"}`),
	"submit": []byte(`{"queryId":1,"columns":["a","b","c"],"rows":[["1","2"],["3"],[]],"rows":[["4"]],"execError":"e"}`),
	"batch": []byte(`{"results":[{"result":{"queryId":1,"rows":[["1"]]}},{"error":{"code":"c","details":{"a":"1"}}},{}],` +
		`"results":[{"result":{"columns":["x"]}}]}`),
}

func TestCodecFixturesRoundTrip(t *testing.T) {
	for _, fx := range codecFixtures {
		data := codecFixture(t, fx.name)
		v := newResponse(fx.kind)
		if err := v.DecodeJSON(data); err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		got, err := v.AppendJSON(nil)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: AppendJSON(DecodeJSON(body)) = %q, %v; want the body back", fx.name, got, err)
		}
		checkDecodeAgrees(t, fx.kind, data)
	}
}

// codecGen draws values full of what a JSON codec gets wrong.
type codecGen struct{ r *rand.Rand }

var codecPieces = []string{
	"SELECT", " ", "WaterTemp.temp", "<", ">", "&", "<script>", "\u2028", "\u2029",
	"\xff", "\xe6\x97", "\xed\xa0\x80", "\x00", "\x01", "\x1f", "\b", "\f", "\n", "\r", "\t",
	"\x7f", "\"", "\\", "/", "naïve — 日本語", "😀", "\ufffd", `\u0041`, "é",
}

func (g codecGen) str() string {
	var b strings.Builder
	for n := g.r.Intn(5); n > 0; n-- {
		b.WriteString(codecPieces[g.r.Intn(len(codecPieces))])
	}
	return b.String()
}

func (g codecGen) strs() []string {
	switch g.r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+g.r.Intn(3))
	for i := range out {
		out[i] = g.str()
	}
	return out
}

func (g codecGen) float() float64 {
	switch g.r.Intn(14) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 1e-7
	case 3:
		return 1e-6
	case 4:
		return -1e21
	case 5:
		return 1e21
	case 6:
		return 999999999999999900000
	case 7:
		return 1 << 62
	case 8:
		return 5e-324
	case 9:
		return math.MaxFloat64
	case 10:
		return 0.1
	case 11:
		return float64(g.r.Int63())
	}
	return g.r.NormFloat64() * math.Pow(10, float64(g.r.Intn(30)-15))
}

func (g codecGen) int64() int64 {
	switch g.r.Intn(5) {
	case 0:
		return 0
	case 1:
		return math.MaxInt64
	case 2:
		return math.MinInt64
	}
	return g.r.Int63n(2_000_000) - 1_000_000
}

func (g codecGen) time() time.Time {
	at := time.Unix(g.r.Int63n(4e9), g.r.Int63n(2e9))
	switch g.r.Intn(6) {
	case 0:
		return time.Time{}
	case 1:
		return at.UTC()
	case 2:
		return at.In(time.FixedZone("PDT", -7*3600))
	case 3:
		return at.In(time.FixedZone("IST", 5*3600+1800))
	case 4:
		return at.In(time.FixedZone("", 3600+17)) // seconds in the offset: not in RFC 3339
	}
	return at.Round(time.Second).In(time.Local)
}

func (g codecGen) query() QueryDTO {
	return QueryDTO{
		ID: g.int64(), Text: g.str(), User: g.str(), Group: g.str(), IssuedAt: g.time(),
		Tables: g.strs(), ResultRows: int(g.int64()), ExecMillis: g.float(), SessionID: g.int64(),
		Valid: g.r.Intn(2) == 0, Annotations: g.strs(), Quality: g.float(),
	}
}

func (g codecGen) search() SearchResponse {
	var r SearchResponse
	if g.r.Intn(5) > 0 {
		r.Matches = make([]MatchDTO, g.r.Intn(4))
		for i := range r.Matches {
			r.Matches[i] = MatchDTO{Query: g.query(), Score: g.float(), Why: g.str()}
		}
	}
	if g.r.Intn(2) == 0 {
		r.NextCursor = g.str()
	}
	return r
}

func (g codecGen) submit() SubmitResponse {
	r := SubmitResponse{
		QueryID: g.int64(), Columns: g.strs(), RowCount: int(g.int64()), ExecMillis: g.float(),
		ExecError: g.str(), SuggestAnnotation: g.r.Intn(2) == 0,
	}
	switch g.r.Intn(3) {
	case 0:
	case 1:
		r.Rows = [][]string{}
	default:
		r.Rows = make([][]string, 1+g.r.Intn(4))
		for i := range r.Rows {
			r.Rows[i] = g.strs()
		}
	}
	return r
}

func (g codecGen) batch() BatchSubmitResponse {
	var r BatchSubmitResponse
	if g.r.Intn(5) == 0 {
		return r
	}
	r.Results = make([]BatchItemResult, g.r.Intn(5))
	for i := range r.Results {
		k := g.r.Intn(4)
		if k != 1 {
			s := g.submit()
			r.Results[i].Result = &s
		}
		if k != 0 {
			e := &APIError{Code: ErrorCode(g.str()), Message: g.str()}
			switch g.r.Intn(3) {
			case 0:
				e.Details = map[string]string{}
			case 1:
				e.Details = map[string]string{}
				for n := 1 + g.r.Intn(4); n > 0; n-- {
					e.Details[g.str()] = g.str()
				}
			}
			r.Results[i].Error = e
		}
	}
	return r
}

func TestCodecMatchesEncodingJSON(t *testing.T) {
	g := codecGen{rand.New(rand.NewSource(54))}
	for i := 0; i < 3000; i++ {
		search, submit, batch := g.search(), g.submit(), g.batch()
		for kind, v := range map[string]response{"search": &search, "submit": &submit, "batch": &batch} {
			checkEncodeAgrees(t, v)
			body, err := oracleEncode(v)
			if err != nil {
				t.Fatal(err)
			}
			checkDecodeAgrees(t, kind, body)
		}
	}
}

// TestAppendJSONRefusesWhatEncodingJSONRefuses: the floats and times with no
// JSON form.
func TestAppendJSONRefusesWhatEncodingJSONRefuses(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncodeAgrees(t, SubmitResponse{ExecMillis: f})
		checkEncodeAgrees(t, SearchResponse{Matches: []MatchDTO{{Score: f}}})
		checkEncodeAgrees(t, SearchResponse{Matches: []MatchDTO{{Query: QueryDTO{Quality: f}}}})
		checkEncodeAgrees(t, BatchSubmitResponse{Results: []BatchItemResult{{Result: &SubmitResponse{ExecMillis: f}}}})
	}
	for _, at := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2009, 1, 5, 8, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2009, 1, 5, 8, 0, 0, 0, time.FixedZone("", -100*3600)),
		time.Date(2009, 1, 5, 8, 0, 0, 0, time.FixedZone("", 23*3600+59*60)),
	} {
		checkEncodeAgrees(t, SearchResponse{Matches: []MatchDTO{{Query: QueryDTO{IssuedAt: at}}}})
	}
}

// decodeCases are bodies no server writes, each aimed at one of
// encoding/json's decoding rules.
var decodeCases = []string{
	``, ` `, `null`, ` null `, `{}`, `[]`, `"x"`, `1`, `true`, `nul`, `{`, `{"matches"`, `{"matches":}`,
	`{} x`, `{}{}`, "\ufeff{}", `{"matches":[],}`, `{,"matches":[]}`, `{"matches":[] "x":1}`, `{'a':1}`,
	// case-insensitive keys, escaped keys, unknown keys of every kind
	`{"MATCHES":[{"QUERY":{"ID":7,"TEXT":"x","IssuedAT":"2009-01-05T08:00:00Z"},"ScOrE":2}]}`,
	`{"matches":[{"query":{"id":1},"ſcore":2,"\u0077hy":"w"}]}`,
	`{"matches":[{"query":{"\u212ad":1}}],"nextcursor":"c"}`,
	`{"x":{"y":[1,-2.5e+3,{"z":null,"w":[true,false,"\ud83d\ude00"]}]},"matches":[]}`,
	`{"x":[1,2,}`, `{"x":tru}`, `{"x":"\x"}`, `{"x":"\u12"}`, `{"x":01}`, `{"x":-}`, `{"x":1.}`, `{"x":1e}`,
	`{"x":.5}`, `{"x":+1}`, `{"x":"` + "\x01" + `"}`, `{"x":NaN}`,
	// null into each kind of field
	`{"matches":null,"nextCursor":null}`,
	`{"matches":[null,{"query":null,"score":null,"why":null}]}`,
	`{"matches":[{"query":{"id":null,"issuedAt":null,"tables":null,"valid":null,"annotations":null}}]}`,
	`{"rows":[["a"],null,[],[null]],"columns":null,"suggestAnnotation":null,"queryId":null}`,
	`{"results":[null,{"result":null,"error":null},{"error":{"details":null}}]}`,
	// duplicate keys decode into what the earlier one left
	`{"matches":[{"query":{"id":1,"text":"a"}}],"matches":[{"query":{"user":"b"}}]}`,
	`{"matches":[{"query":{"tables":["a","b","c"]}}],"matches":[{"query":{"tables":["x"]}}],"matches":[{"query":{"tables":[null,null]}}]}`,
	`{"matches":[{},{},{}],"matches":[{"why":"x"}],"matches":[null,null]}`,
	`{"rows":[["a","b"],["c"]],"rows":[[null]],"rows":[[null,null],null]}`,
	`{"results":[{"result":{"queryId":1}}],"results":[{"result":{"rowCount":2}}]}`,
	`{"results":[{"error":{"details":{"a":"1"}}}],"results":[{"error":{"details":{"b":"2","a":null}}}]}`,
	`{"results":[{"error":{"details":{}}}],"results":[{"error":{"code":"x"}}]}`,
	`{"nextCursor":"a","nextCursor":"b","NEXTCURSOR":"c"}`,
	// strings: escapes, surrogates, invalid UTF-8, control characters
	`{"nextCursor":"a\u00e9\ud83d\ude00\ud800x\udc00\ud800\u0041\/\b\f\n\r\t\"\\"}`,
	`{"nextCursor":"\ud800\ud800\udc00"}`, `{"nextCursor":"\uD834\uDD1E\u2028"}`,
	"{\"nextCursor\":\"\xff\xfe\xe6\x97 ok \xed\xa0\x80\"}",
	"{\"matches\":[{\"why\":\"tab\there\"}]}",
	"{\"\xff\":1,\"nextCursor\":\"k\"}",
	// numbers: integers that are not, ranges, negative zero
	`{"matches":[{"query":{"id":1.5}}]}`, `{"matches":[{"query":{"id":1e3}}]}`,
	`{"matches":[{"query":{"id":-0}}]}`, `{"matches":[{"query":{"id":9223372036854775807}}]}`,
	`{"matches":[{"query":{"id":9223372036854775808}}]}`, `{"matches":[{"query":{"id":-9223372036854775809}}]}`,
	`{"matches":[{"score":1e400}]}`, `{"matches":[{"score":-1e400}]}`, `{"matches":[{"score":1e-400}]}`,
	`{"matches":[{"score":-0.0,"query":{"quality":-0}}]}`, `{"matches":[{"score":"1"}]}`,
	`{"queryId":"1"}`, `{"rowCount":1.0}`, `{"suggestAnnotation":1}`, `{"suggestAnnotation":"true"}`,
	// wrong kinds
	`{"matches":{}}`, `{"matches":"x"}`, `{"matches":[1]}`, `{"matches":[[]]}`, `{"results":[{"result":[]}]}`,
	`{"results":[{"result":5}]}`, `{"results":[{"error":{"details":[]}}]}`, `{"results":[{"error":{"details":{"a":1}}}]}`,
	`{"columns":"x"}`, `{"rows":["x"]}`, `{"rows":[[1]]}`, `{"matches":[{"query":{"tables":[1]}}]}`,
	// times: offsets, escapes (not undone, so refused), non-strings, bad dates
	`{"matches":[{"query":{"issuedAt":"2009-01-05T08:00:00+05:30"}}]}`,
	`{"matches":[{"query":{"issuedAt":"2009-01-05T08:00:00.123456789-07:00"}}]}`,
	`{"matches":[{"query":{"issuedAt":"\u0032009-01-05T08:00:00Z"}}]}`,
	`{"matches":[{"query":{"issuedAt":1}}]}`, `{"matches":[{"query":{"issuedAt":{}}}]}`,
	`{"matches":[{"query":{"issuedAt":"2009-13-05T08:00:00Z"}}]}`, `{"matches":[{"query":{"issuedAt":"2009-01-05 08:00:00Z"}}]}`,
	`{"matches":[{"query":{"issuedAt":"2009-01-05T08:00:00+24:00"}}]}`,
	// nesting at and past encoding/json's limit
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`,
}

func TestDecodeJSONFollowsUnmarshal(t *testing.T) {
	for _, kind := range codecTypes {
		for _, c := range decodeCases {
			checkDecodeAgrees(t, kind, []byte(c))
		}
	}
}

// FuzzDecodeResponse: on any bytes, DecodeJSON and json.Unmarshal accept and
// reject alike and agree on what they accept, for all three types. Seeded
// with real bodies and decodeCases.
func FuzzDecodeResponse(f *testing.F) {
	for _, fx := range codecFixtures {
		f.Add(codecFixture(f, fx.name))
	}
	for _, c := range decodeCases {
		if len(c) < 1000 {
			f.Add([]byte(c))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range codecTypes {
			checkDecodeAgrees(t, kind, data)
		}
	})
}

// TestWriteJSONSendsInternalWhenEncodingFails: a body that does not encode —
// hand-coded or through encoding/json — is answered with the 500 internal
// envelope, not a 200 with an empty body.
func TestWriteJSONSendsInternalWhenEncodingFails(t *testing.T) {
	for _, v := range []interface{}{
		SubmitResponse{QueryID: 1, ExecMillis: math.NaN()},
		StatsResponse{Status: StatusDocDTO{UptimeSeconds: math.NaN()}},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		var env ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%T: body %q: %v", v, rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusInternalServerError || env.Error.Code != CodeInternal ||
			!strings.Contains(env.Error.Message, "NaN") {
			t.Errorf("%T: status %d, envelope %+v; want 500 internal naming the NaN", v, rec.Code, env.Error)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%T: Content-Length %q for a %d-byte body", v, got, rec.Body.Len())
		}
	}
}

// BenchmarkResponseCodec times the hand codec on the real bodies: encode is
// a handler's AppendJSON into a reused buffer, decode is the client's
// DecodeJSON of a read body into a fresh value.
func BenchmarkResponseCodec(b *testing.B) {
	for _, stage := range []string{"encode", "decode"} {
		for _, body := range codecFixtures[:3] {
			data := codecFixture(b, body.name)
			enc := newResponse(body.kind)
			if err := json.Unmarshal(data, enc); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", stage, body.name), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				buf := make([]byte, 0, 2*len(data))
				var err error
				for i := 0; i < b.N; i++ {
					if stage == "encode" {
						buf, err = enc.AppendJSON(buf[:0])
					} else {
						err = newResponse(body.kind).DecodeJSON(data)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
