package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// The JSON codec the binary one replaced, kept as the reference: a mutation
// must survive the binary round trip exactly as it survived this one.
func jsonRoundTrip(t testing.TB, m *Mutation) *Mutation {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	var out Mutation
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	return &out
}

func binaryRoundTrip(t testing.TB, m *Mutation) *Mutation {
	t.Helper()
	b, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(b) == 0 || b[0] == '{' {
		t.Fatalf("payload starts with %q", b[:min(len(b), 1)])
	}
	out, err := DecodeMutation(b)
	if err != nil {
		t.Fatalf("DecodeMutation: %v", err)
	}
	return out
}

// asJSON renders a mutation the way the API renders records: nil and empty
// slices, omitted fields and zone offsets all show.
func asJSON(t testing.TB, m *Mutation) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("rendering: %v", err)
	}
	return string(b)
}

func mustRecord(t testing.TB, text string) *QueryRecord {
	t.Helper()
	rec, err := NewRecordFromSQL(text)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

const (
	joinHeavySQL = "SELECT WaterSalinity.salinity, WaterTemp.temp, CityLocations.city FROM WaterSalinity, WaterTemp, CityLocations " +
		"WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterTemp.loc_x = CityLocations.loc_x AND CityLocations.state = 'MI' AND WaterTemp.temp < 18"
	pointLookupSQL = "SELECT WaterTemp.temp FROM WaterTemp WHERE WaterTemp.lake = 'Lake Union'"
)

// codecRecord is a stored-looking record: parsed features plus the runtime
// fields the profiler fills in.
func codecRecord(t testing.TB, text string, id QueryID) *QueryRecord {
	rec := mustRecord(t, text)
	rec.ID = id
	rec.User, rec.Group = "user07", "limnology"
	rec.Visibility = VisibilityGroup
	rec.IssuedAt = time.Date(2009, 1, 5, 8, 0, 36, 287113937, time.UTC)
	rec.Stats = RuntimeStats{
		ExecTime: 3092612, ResultRows: 10, ResultColumns: 3, SchemaVersion: 6, ExecutedAt: rec.IssuedAt,
	}
	rec.Sample = &OutputSample{
		Columns: []string{"salinity", "temp", "city"},
		Rows: [][]string{
			{"4.044260943723426", "22.82736161943859", "Ann Arbor"},
			{"2.70375480819875", "24.67769171038307", "Detroit"},
			{"3.6156664511974275", "24.67769171038307", "Detroit"},
		},
		TotalRows: 10, Truncated: true,
	}
	return rec
}

func codecCases(t testing.TB) map[string]*Mutation {
	plus5 := time.FixedZone("", 5*3600+1800)
	odd := codecRecord(t, pointLookupSQL, 12)
	odd.IssuedAt = time.Date(2024, 2, 29, 23, 59, 59, 999999999, plus5)
	odd.Stats = RuntimeStats{Error: "relation \"ghost\" does not exist", ExecutedAt: time.Time{}}
	odd.Tables = []string{}  // empty, not nil
	odd.Aggregates = nil     // nil, not empty
	odd.GroupBy = []string{} //
	odd.Sample = &OutputSample{Columns: nil, Rows: [][]string{nil, {}, {"ünï", ""}}, TotalRows: -1}
	odd.Annotations = []Annotation{{Author: "bob", Text: "naïve join — 日本語", At: time.Date(1969, 7, 20, 20, 17, 0, 0, time.FixedZone("", -4*3600))}, {}}
	odd.Valid, odd.StatsStale = false, true
	odd.InvalidReason = "table dropped"
	big := codecRecord(t, pointLookupSQL, 13)
	big.Text = "SELECT '" + strings.Repeat("x", 1<<20) + "'"
	bare := &QueryRecord{QueryShape: &QueryShape{}}
	return map[string]*Mutation{
		"put join-heavy":   {Op: OpPut, Record: codecRecord(t, joinHeavySQL, 1)},
		"put point-lookup": {Op: OpPut, Record: codecRecord(t, pointLookupSQL, 2)},
		"put odd":          {Op: OpPut, Record: odd},
		"put 1MiB text":    {Op: OpPut, Record: big},
		"put zero record":  {Op: OpPut, Record: bare},
		"annotate":         {Op: OpAnnotate, ID: 4, Annotation: &Annotation{Author: "alice", Text: "watch the join", Fragment: "loc_x", At: time.Unix(1700000000, 5).In(plus5)}},
		"visibility":       {Op: OpSetVisibility, ID: 4, Visibility: VisibilityPublic},
		"visibility zero":  {Op: OpSetVisibility, ID: 4},
		"delete":           {Op: OpDelete, ID: math.MaxInt64},
		"assign-session":   {Op: OpSessionAssignment, ID: 5}, // an older build's ops: they decode to
		"add-edge":         {Op: OpSessionEdge},              // their op, whatever they carried
		"mark-invalid":     {Op: OpMarkInvalid, ID: 6, Reason: "column renamed"},
		"mark-valid":       {Op: OpMarkValid, ID: 6},
		"mark-stale":       {Op: OpMarkStale, ID: 6, Stale: true},
		"mark-stale false": {Op: OpMarkStale, ID: 6},
		"update-stats":     {Op: OpUpdateStats, ID: 7, Stats: &RuntimeStats{ExecTime: time.Second, ResultRows: 3, ExecutedAt: time.Unix(1, 2).UTC()}},
		"set-sample":       {Op: OpSetSample, ID: 8, Sample: &OutputSample{Columns: []string{"a"}, Rows: [][]string{{"1"}, {"1"}}, TotalRows: 2}},
		"set-sample nil":   {Op: OpSetSample, ID: 8},
		"set-quality":      {Op: OpSetQuality, ID: 9}, // an older build's op, like the session ones
		"replace-text":     {Op: OpReplaceText, ID: 10, Record: mustRecord(t, pointLookupSQL)},
	}
}

// TestMutationCodecMatchesReference: for every op and every awkward value,
// the binary round trip yields exactly what the JSON round trip yielded.
func TestMutationCodecMatchesReference(t *testing.T) {
	for name, m := range codecCases(t) {
		t.Run(name, func(t *testing.T) {
			got, want := asJSON(t, binaryRoundTrip(t, m)), asJSON(t, jsonRoundTrip(t, m))
			if got != want {
				t.Fatalf("binary round trip differs from the reference\n got %.400s\nwant %.400s", got, want)
			}
			if orig := asJSON(t, m); got != orig {
				t.Fatalf("round trip changed the mutation\n got %.400s\nwant %.400s", got, orig)
			}
		})
	}
}

// TestMutationCodecFloats: an older build stored a quality score as float
// bits, in the record's last word and in set-quality's score. Whatever bits it
// wrote — NaN payloads, -0, -Inf — are read and dropped: the record decodes to
// what this build writes, whose slot is zero, and the op to its op and ID.
func TestMutationCodecFloats(t *testing.T) {
	rec := codecRecord(t, pointLookupSQL, 1)
	payload := parentPut(rec)
	slot := payload[len(payload)-8:] // the record is the put's last field
	if !bytes.Equal(slot, make([]byte, 8)) {
		t.Fatalf("the quality slot is written as %x, want zeros", slot)
	}
	want := asJSON(t, &Mutation{Op: OpPut, Record: rec})
	for _, bits := range []uint64{math.Float64bits(0.75), math.Float64bits(math.NaN()), 0x7ff8000000000123, math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.Inf(-1))} {
		binary.LittleEndian.PutUint64(slot, bits)
		out, err := DecodeMutation(payload)
		if err != nil {
			t.Fatalf("slot %#x: %v", bits, err)
		}
		if got := asJSON(t, out); got != want {
			t.Errorf("slot %#x: decoded %.300s\nwant %.300s", bits, got, want)
		}
		op := append([]byte(parentSetQuality[:len(parentSetQuality)-8]), slot...)
		if out, err = DecodeMutation(op); err != nil || asJSON(t, out) != asJSON(t, &Mutation{Op: OpSetQuality, ID: 9}) {
			t.Errorf("set-quality of %#x decoded to %+v, %v", bits, out, err)
		}
	}
}

// parentPut is a put as builds before shape numbers logged it: one record
// body with the shape's and the record's fields interleaved, a session slot
// and a quality slot.
func parentPut(rec *QueryRecord) []byte {
	var e Encoder
	dst := binary.AppendUvarint([]byte{PayloadFormat, 1}, hasRecord)
	dst = binary.AppendVarint(dst, int64(rec.ID))
	dst = e.shapeHead(dst, rec.QueryShape)
	dst = e.instanceHead(dst, rec)
	dst = e.shapeFeatures(dst, rec.QueryShape)
	dst = e.instanceRuns(dst, rec)
	dst = append(dst, 0) // the session slot
	dst = e.instanceFlags(dst, rec)
	return binary.LittleEndian.AppendUint64(dst, 0) // the quality slot
}

// TestParentPutDecodes: a put an older build logged decodes to the record it
// carried, with a shape that has no number, and re-encodes in this build's
// form, defining the shape inline.
func TestParentPutDecodes(t *testing.T) {
	rec := codecRecord(t, joinHeavySQL, 3)
	m, err := DecodeMutation(parentPut(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := asJSON(t, m), asJSON(t, &Mutation{Op: OpPut, Record: rec}); got != want {
		t.Fatalf("decoded %.300s\nwant %.300s", got, want)
	}
	if m.Record.Number() != 0 || m.shapeRef != 0 {
		t.Fatalf("an older build's put carries shape number %d, reference %d", m.Record.Number(), m.shapeRef)
	}
	if got := asJSON(t, binaryRoundTrip(t, m)); got != asJSON(t, m) {
		t.Fatalf("re-encoded %.300s", got)
	}
}

// TestMutationCodecDedupes: a record's repeated names and its three equal
// texts are written once.
func TestMutationCodecDedupes(t *testing.T) {
	rec := codecRecord(t, joinHeavySQL, 1)
	rec.Canonical, rec.Template = rec.Text, rec.Text
	b, err := (&Mutation{Op: OpPut, Record: rec}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte(rec.Text)); n != 1 {
		t.Errorf("the text shared by Text, Canonical and Template is written %d times", n)
	}
	// "SELECT" appears once in the text and once as the clause of three
	// attributes.
	if n := bytes.Count(b, []byte("SELECT")); n != 2 {
		t.Errorf("\"SELECT\" is written %d times, want 2", n)
	}
	ref, _ := json.Marshal(&Mutation{Op: OpPut, Record: rec})
	if len(b)*2 > len(ref) {
		t.Errorf("binary payload %d B is not under half the reference's %d B", len(b), len(ref))
	}
}

// TestEncoderDoesNotAllocate is the WAL append path's budget: encoding into
// a buffer that is already large enough allocates nothing.
func TestEncoderDoesNotAllocate(t *testing.T) {
	var enc Encoder
	buf := make([]byte, 0, 1<<16)
	for name, m := range codecCases(t) {
		if strings.Contains(name, "1MiB") {
			continue
		}
		if n := testing.AllocsPerRun(100, func() {
			var err error
			if buf, err = enc.AppendMutation(buf[:0], m); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations per encode", name, n)
		}
	}
}

func TestDecodeMutationRejects(t *testing.T) {
	good, err := (&Mutation{Op: OpPut, Record: codecRecord(t, joinHeavySQL, 1)}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMutation([]byte(`{"op":"put","record":{"ID":1}}`)); !errors.Is(err, ErrPreBinaryPayload) {
		t.Errorf("JSON payload: err = %v, want ErrPreBinaryPayload", err)
	}
	for cut := 0; cut < len(good); cut++ {
		if m, err := DecodeMutation(good[:cut]); err == nil || m != nil {
			t.Fatalf("payload cut to %d of %d bytes decoded (m=%v, err=%v)", cut, len(good), m, err)
		}
	}
	if m, err := DecodeMutation(append(append([]byte(nil), good...), 0)); err == nil || m != nil {
		t.Error("a trailing byte was accepted")
	}
	for name, p := range map[string][]byte{
		"format 2":        {2, 1, 0},
		"op 0":            {PayloadFormat, 0, 0},
		"op 14":           {PayloadFormat, 14, 0},
		"snapshot header": AppendSnapshotHeader(nil, &StoreState{}),
		"two records":     append(binary.AppendUvarint([]byte{PayloadFormat, 1}, hasRecord|hasShapedRecord), parentPut(codecRecord(t, pointLookupSQL, 1))[3:]...),
		"ref to shape 0":  {PayloadFormat, 1, 0x80, 0x10, 1, 2},
		"unknown field":   {PayloadFormat, 4, 0x80, 0x10},
		"bad string ref":  {PayloadFormat, 7, hasReason, 3},
	} {
		if m, err := DecodeMutation(p); err == nil || m != nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := (&Mutation{Op: "rename"}).Encode(); err == nil {
		t.Error("an op without a code encoded")
	}
}

// TestDecodedMutationOwnsItsMemory: the frame readers reuse their buffer, so
// nothing decoded may alias the payload.
func TestDecodedMutationOwnsItsMemory(t *testing.T) {
	m := &Mutation{Op: OpPut, Record: codecRecord(t, joinHeavySQL, 1)}
	b, _ := m.Encode()
	out, err := DecodeMutation(b)
	if err != nil {
		t.Fatal(err)
	}
	want := asJSON(t, out)
	for i := range b {
		b[i] = 0xff
	}
	if got := asJSON(t, out); got != want {
		t.Fatal("overwriting the payload changed the decoded mutation")
	}
}

func TestSnapshotPayloads(t *testing.T) {
	src := NewStore()
	for i, text := range []string{joinHeavySQL, pointLookupSQL, joinHeavySQL} {
		mustPut(t, src, codecRecord(t, text, QueryID(i+1)))
	}
	st := src.CaptureState(nil)
	if len(st.Shapes) != 2 || st.NextShape != 3 || st.Records[2].QueryShape != st.Records[0].QueryShape {
		t.Fatalf("captured %d shapes, counter %d", len(st.Shapes), st.NextShape)
	}
	want := SnapshotHeader{NextID: 3, Records: 3, Numbered: true, Shapes: 2, NextShape: 3}
	if got, err := DecodeSnapshotHeader(AppendSnapshotHeader(nil, st)); err != nil || got != want {
		t.Fatalf("header round trip = %+v, %v", got, err)
	}
	if _, err := DecodeSnapshotHeader([]byte(`{"nextId":1}`)); !errors.Is(err, ErrPreBinaryPayload) {
		t.Errorf("JSON snapshot: err = %v, want ErrPreBinaryPayload", err)
	}
	if _, err := DecodeSnapshotHeader(AppendSnapshotHeader(nil, &StoreState{Shapes: st.Shapes, NextShape: 2})); err == nil {
		t.Error("a counter of 2 for two shapes was accepted")
	}

	// One element per chunk at a limit below one element, each cut short
	// refused without changing the staged state.
	var enc Encoder
	staged := &StoreState{NextShape: st.NextShape}
	for rest := st.Shapes; len(rest) > 0; rest = rest[1:] {
		p, n := enc.AppendShapeChunk(nil, rest, 1)
		if kind, count, err := ChunkCount(p); err != nil || kind != ChunkShapes || count != n || n != 1 {
			t.Fatalf("ChunkCount = %v, %d, %v", kind, count, err)
		}
		for cut := 0; cut < len(p); cut++ {
			if err := DecodeShapeChunk(p[:cut], staged); err == nil || len(staged.Shapes) != 2-len(rest) {
				t.Fatalf("shape chunk cut to %d of %d bytes decoded", cut, len(p))
			}
		}
		if err := DecodeShapeChunk(p, staged); err != nil {
			t.Fatal(err)
		}
	}
	for rest := st.Records; len(rest) > 0; rest = rest[1:] {
		p, n := enc.AppendRecordChunk(nil, rest, 1)
		if kind, count, err := ChunkCount(p); err != nil || kind != ChunkRecords || count != n || n != 1 {
			t.Fatalf("ChunkCount = %v, %d, %v", kind, count, err)
		}
		for cut := 0; cut < len(p); cut++ {
			if err := DecodeRecordChunk(p[:cut], staged); err == nil || len(staged.Records) != 3-len(rest) {
				t.Fatalf("record chunk cut to %d of %d bytes decoded", cut, len(p))
			}
		}
		if err := DecodeRecordChunk(p, staged); err != nil {
			t.Fatal(err)
		}
	}
	for i, rec := range staged.Records {
		got, _ := json.Marshal(rec)
		want, _ := json.Marshal(st.Records[i])
		if !bytes.Equal(got, want) || rec.Number() != st.Records[i].Number() {
			t.Fatalf("record %d changed in the chunk", i)
		}
	}
	if staged.Records[0].QueryShape != staged.Records[2].QueryShape {
		t.Error("two records of one shape decoded to two shapes")
	}

	// Shapes out of order, a reference to a shape the snapshot does not
	// hold, and numbers at the counter are refused.
	shapes, _ := enc.AppendShapeChunk(nil, []*QueryShape{st.Shapes[1], st.Shapes[0]}, 1<<20)
	if err := DecodeShapeChunk(shapes, &StoreState{NextShape: 3}); err == nil {
		t.Error("shapes out of ascending order were accepted")
	}
	if err := DecodeShapeChunk(shapes[:0:0], &StoreState{NextShape: 3}); err == nil {
		t.Error("an empty payload decoded as shapes")
	}
	if err := DecodeShapeChunk(shapes, &StoreState{NextShape: 2}); err == nil {
		t.Error("a shape numbered at the counter was accepted")
	}
	records, _ := enc.AppendRecordChunk(nil, st.Records, 1<<20)
	if err := DecodeRecordChunk(records, &StoreState{Shapes: staged.Shapes[:1], NextShape: 3}); !errors.Is(err, ErrUnknownShape) || !strings.Contains(err.Error(), "shape 2") {
		t.Errorf("a dangling reference: %v", err)
	}
	if err := DecodeShapeChunk(records, &StoreState{NextShape: 3}); err == nil {
		t.Error("a record chunk decoded as shapes")
	}

	// An older build's record chunk carries each record's shape.
	parent := parentRecordChunk(st.Records)
	if kind, count, err := ChunkCount(parent); err != nil || kind != ChunkParentRecords || count != 3 {
		t.Fatalf("ChunkCount(older record chunk) = %v, %d, %v", kind, count, err)
	}
	older := &StoreState{}
	if err := DecodeRecordChunk(parent, older); err != nil {
		t.Fatal(err)
	}
	for i, rec := range older.Records {
		got, _ := json.Marshal(rec)
		want, _ := json.Marshal(st.Records[i])
		if !bytes.Equal(got, want) || rec.Number() != 0 {
			t.Fatalf("older record %d decoded to %s", i, got)
		}
	}

	// An edge chunk is only ever an older build's; it is checked and dropped.
	ep := []byte(parentEdgeChunk)
	if kind, count, err := ChunkCount(ep); err != nil || kind != ChunkEdges || count != 1 {
		t.Fatalf("ChunkCount(edge chunk) = %v, %d, %v", kind, count, err)
	}
	if err := SkipEdgeChunk(ep); err != nil {
		t.Fatalf("SkipEdgeChunk: %v", err)
	}
	for cut := chunkHeaderBytes; cut < len(ep); cut++ {
		if err := SkipEdgeChunk(ep[:cut]); err == nil {
			t.Fatalf("edge chunk cut to %d of %d bytes accepted", cut, len(ep))
		}
	}
	if err := SkipEdgeChunk(append(ep[:len(ep):len(ep)], 0)); err == nil {
		t.Error("an edge chunk with a trailing byte was accepted")
	}
	if err := SkipEdgeChunk(records); err == nil {
		t.Error("a record chunk read as edges")
	}
	if err := DecodeRecordChunk(ep, &StoreState{}); err == nil {
		t.Error("an edge chunk decoded as records")
	}

	// An older build's checkpoint section part: the stats section, version 2,
	// four parts to follow, three bytes of its data.
	part, err := DecodeCheckpointPart([]byte(parentCheckpointPart))
	if want := (CheckpointPart{Name: "stats", Version: 2, Left: 4}); err != nil || part != want {
		t.Fatalf("checkpoint part = %+v, %v; want %+v", part, err, want)
	}
	for cut := 2; cut < len(parentCheckpointPart)-3; cut++ {
		if _, err := DecodeCheckpointPart([]byte(parentCheckpointPart)[:cut]); err == nil {
			t.Errorf("a checkpoint part cut to %d bytes was accepted", cut)
		}
	}
}

// parentRecordChunk is a record chunk as builds before shape numbers wrote
// it: each record one interleaved body (see parentPut).
func parentRecordChunk(recs []*QueryRecord) []byte {
	dst := binary.LittleEndian.AppendUint32([]byte{PayloadFormat, kindRecordChunk}, uint32(len(recs)))
	for _, rec := range recs {
		body := parentPut(rec)[3:] // without the format, op code and mask
		dst = binary.AppendUvarint(dst, uint64(len(body)))
		dst = append(dst, body...)
	}
	return dst
}

// Payloads an older build wrote, which this build can no longer produce: a
// session assignment, a session edge, a snapshot edge chunk, a quality score
// and a part of a snapshot's checkpoint section.
const (
	parentAssignSession  = "\x01\x05\x11\x18\x08"                             // query 12 to session 4
	parentAddEdge        = "\x01\x06\x20\x16\x18\x04\x14+table WaterSalinity" // 11 -> 12, investigation
	parentEdgeChunk      = "\x01\x42\x01\x00\x00\x00\x02\x04\x02\x0f-attr a\x0a+attr b"
	parentSetQuality     = "\x01\x0c\x81\x08\x12\x00\x00\x00\x00\x00\x00\xd8\x3f" // query 9 scored 0.375
	parentCheckpointPart = "\x01\x43\x05stats\x02\x04\x00\x01\x02"
)

// TestParentSessionOpsDecodeToNothing: an older build's session and quality
// ops decode to their op and nothing else — the session, the edge and the
// score are read, checked and dropped — and cut short they are refused like
// any other payload.
func TestParentSessionOpsDecodeToNothing(t *testing.T) {
	for _, c := range []struct {
		payload string
		want    Mutation
	}{
		{parentAssignSession, Mutation{Op: OpSessionAssignment, ID: 12}},
		{parentAddEdge, Mutation{Op: OpSessionEdge}},
		{parentSetQuality, Mutation{Op: OpSetQuality, ID: 9}},
	} {
		m, err := DecodeMutation([]byte(c.payload))
		if err != nil {
			t.Fatalf("%s: %v", c.want.Op, err)
		}
		if got, want := asJSON(t, m), asJSON(t, &c.want); got != want {
			t.Errorf("decoded %s, want %s", got, want)
		}
		for cut := 2; cut < len(c.payload); cut++ {
			if m, err := DecodeMutation([]byte(c.payload[:cut])); err == nil || m != nil {
				t.Errorf("%s cut to %d of %d bytes decoded", c.want.Op, cut, len(c.payload))
			}
		}
	}
}

// fuzzShapes are the shapes the store each fuzz input is applied to holds,
// numbered 1 to 3.
var fuzzShapes = func() []*QueryShape {
	var out []*QueryShape
	for _, text := range []string{joinHeavySQL, pointLookupSQL, "SELECT a FROM t"} {
		rec, err := NewRecordFromSQL(text)
		if err != nil {
			panic(err)
		}
		out = append(out, rec.QueryShape)
	}
	return out
}()

// fuzzStore is a store holding a record of each of fuzzShapes.
func fuzzStore(t testing.TB) *Store {
	s := NewStore()
	for _, sh := range fuzzShapes {
		mustPut(t, s, &QueryRecord{QueryShape: sh.values(), User: "u"})
	}
	return s
}

// shapeFrames are puts and a replace-text as a store logs them against
// fuzzStore's state: a new shape defined inline (number 4), a reference to a
// live shape, a reference to a shape not yet defined, a dangling reference,
// and a definition reusing a live number for other values.
func shapeFrames(t testing.TB) map[string][]byte {
	s := fuzzStore(t)
	log := logRecorder(t, s)
	mustPut(t, s, codecRecord(t, "SELECT b FROM t WHERE c = 1", 0))
	mustPut(t, s, codecRecord(t, pointLookupSQL, 0))
	if err := s.ReplaceText(1, freshRecord("SELECT a FROM t")); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{"inline": (*log)[0], "reference": (*log)[1], "replace-text reference": (*log)[2]}
	forge := func(m *Mutation) []byte {
		p, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ahead, dangling := &Mutation{Op: OpPut, Record: &QueryRecord{ID: 9}}, &Mutation{Op: OpPut, Record: &QueryRecord{ID: 9}}
	ahead.shapeRef, dangling.shapeRef = 5, 99
	out["reference before its definition"] = forge(ahead)
	out["dangling reference"] = forge(dangling)
	reused := codecRecord(t, "SELECT d FROM t", 9)
	reused.seq = 2
	out["number reused with other values"] = forge(&Mutation{Op: OpPut, Record: reused})
	return out
}

// FuzzDecodeMutation: the decoder faces bytes from disk and from the
// replication stream. It never panics, never returns a half-filled mutation,
// and re-encoding what it accepted reaches a fixpoint: Encode(Decode(b))
// decodes to the same mutation and encodes to itself. What it accepts is then
// applied to a store holding three shapes, so shape references are resolved
// too: the apply may fail, but never panics, and leaves a consistent
// dictionary behind.
func FuzzDecodeMutation(f *testing.F) {
	frames := shapeFrames(f)
	names := make([]string, 0, len(frames))
	for name := range frames {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		f.Add(frames[name])
	}
	for _, m := range codecCases(f) {
		if m.Record != nil && len(m.Record.Text) > 1<<16 {
			continue
		}
		b, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"op":"delete","id":3}`))
	f.Add([]byte{PayloadFormat, 1, hasRecord})
	f.Add(hostileCount(2, 512)) // a predicate count that its bytes could not hold
	// What only an older build writes: the encoder above cannot reach the
	// read-and-drop path of the session, edge and quality fields.
	f.Add([]byte(parentAssignSession))
	f.Add([]byte(parentAddEdge))
	f.Add([]byte(parentSetQuality))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMutation(b)
		if err != nil {
			if m != nil {
				t.Fatalf("error %v with a non-nil mutation", err)
			}
			return
		}
		once, err := m.Encode()
		if err != nil {
			t.Fatalf("re-encoding an accepted mutation: %v", err)
		}
		m2, err := DecodeMutation(once)
		if err != nil {
			t.Fatalf("decoding the re-encoding: %v", err)
		}
		twice, err := m2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("Encode(Decode(b)) is not a fixpoint:\n once %x\ntwice %x", once, twice)
		}
		store := fuzzStore(t)
		if err := store.Apply(m); err != nil {
			return
		}
		checkDictionary(t, store, false)
	})
}

// BenchmarkMutationCodec prices the codec on the two record shapes the
// workloads produce: a three-way join and a point lookup.
func BenchmarkMutationCodec(b *testing.B) {
	for _, c := range []struct{ name, sql string }{{"join-heavy", joinHeavySQL}, {"point-lookup", pointLookupSQL}} {
		m := &Mutation{Op: OpPut, Record: codecRecord(b, c.sql, 1)}
		payload, err := m.Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+c.name, func(b *testing.B) {
			var enc Encoder
			buf := make([]byte, 0, 4096)
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = enc.AppendMutation(buf[:0], m)
			}
			b.ReportMetric(float64(len(payload)), "payload-B")
		})
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchSink, err = DecodeMutation(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchSink *Mutation
