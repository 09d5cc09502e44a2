package profiler

import (
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// MaxInlineRows is how many result rows an Answer carries: what a
// Traditional-mode response inlines. Full results stay server-side, as in the
// paper's shared-data-center setting.
const MaxInlineRows = 100

// Answer is what a statement answered, as its submitter sees it. Its slices
// may be shared with the profiler's memo and with the logged output sample:
// they are read-only. The struct itself is the caller's.
type Answer struct {
	Columns []string
	// Rows holds the first MaxInlineRows result rows, rendered.
	Rows [][]string
	// RowCount is the result's cardinality (0 for DML and DDL).
	RowCount int
	// Elapsed is the engine time of the execution that produced the answer:
	// for a repeated SELECT over unchanged data, the execution that ran
	// first.
	Elapsed time.Duration
}

// Cardinality returns the number of result rows.
func (a *Answer) Cardinality() int { return a.RowCount }

// render renders a result's rows once, for both the answer's inline rows and
// the output sample the sampling policy keeps of them: the rows both hold are
// the sample's. The rows only the answer holds are rendered apart, so a
// sample the store keeps after its answer is gone holds nothing more.
func (p *Profiler) render(res *engine.Result) (Answer, *storage.OutputSample) {
	n := len(res.Rows)
	inline, take := min(n, MaxInlineRows), min(n, p.cfg.Sample.Budget(res.Elapsed))
	sampled := engine.RenderRows(res.Rows[:take])
	ans := Answer{Columns: res.Columns, RowCount: n, Elapsed: res.Elapsed}
	if inline > take {
		ans.Rows = append(sampled[:take:take], engine.RenderRows(res.Rows[take:inline])...)
	} else if inline > 0 {
		ans.Rows = sampled[:inline:inline]
	}
	cols := res.Columns
	if len(cols) == 0 {
		cols = nil // a sample's empty column list is nil, as it always was
	}
	return ans, &storage.OutputSample{
		Columns:   cols,
		Rows:      sampled,
		TotalRows: n,
		Truncated: take < n,
	}
}

// The memo's bounds: how many answers it keeps, and how many bytes they hold
// in all (memoEntry.bytes).
const (
	memoMaxEntries = 4096
	memoMaxBytes   = 8 << 20
)

// The bytes of the headers an entry's strings and rows hold beside their
// text.
const (
	stringHeaderBytes = 16
	rowHeaderBytes    = 24
)

// memoEntry is what a SELECT answered at one data epoch: the answer and the
// store's interned output sample of it, which a repeat logs as it is.
type memoEntry struct {
	text   string
	epoch  uint64
	answer Answer
	sample *storage.OutputSample
	bytes  int
}

// newMemoEntry returns the entry for a fresh answer to text at epoch, whose
// rows render shares with its sample; the entry's sample is set once the
// record commits and the store has interned it. The entry's bytes are its
// text, its columns and every rendered row it holds, headers included.
func newMemoEntry(text string, epoch uint64, ans Answer, sample *storage.OutputSample) *memoEntry {
	e := &memoEntry{text: text, epoch: epoch, answer: ans}
	rows := ans.Rows
	if len(sample.Rows) > len(rows) {
		rows = sample.Rows
	}
	e.bytes = len(text) + stringBytes(ans.Columns)
	for _, row := range rows {
		e.bytes += rowHeaderBytes + stringBytes(row)
	}
	return e
}

func stringBytes(ss []string) (n int) {
	for _, s := range ss {
		n += stringHeaderBytes + len(s)
	}
	return n
}

// memo answers a repeated SELECT from its last answer: a SELECT is a pure
// function of its text and the tables' contents (the engine has no clock,
// random or session functions), so while the catalog's data epoch
// (engine.Catalog.Epoch) stands still, the same text answers the same. The
// memo holds answers of one epoch, the newest it has seen: a lookup or an
// insert at a newer epoch drops every entry, and one at an older epoch
// neither finds nor stores anything. Past its bounds it evicts arbitrary
// entries, in map order. One mutex guards it.
type memo struct {
	mu      sync.Mutex
	epoch   uint64
	entries map[string]*memoEntry
	bytes   int

	// Nil (and inert) until EnableMetrics runs.
	hits, misses, evictions *telemetry.Counter
}

func newMemo() *memo { return &memo{entries: make(map[string]*memoEntry)} }

// at reports whether the memo holds answers of epoch, dropping every entry
// first when epoch is newer than the memo's. Callers hold mu.
func (m *memo) at(epoch uint64) bool {
	if epoch > m.epoch {
		clear(m.entries)
		m.epoch, m.bytes = epoch, 0
	}
	return epoch == m.epoch
}

// get returns the entry answering text at epoch, or nil.
func (m *memo) get(text string, epoch uint64) *memoEntry {
	m.mu.Lock()
	var e *memoEntry
	if m.at(epoch) {
		e = m.entries[text]
	}
	m.mu.Unlock()
	if e == nil {
		m.misses.Inc()
	} else {
		m.hits.Inc()
	}
	return e
}

// put stores e unless the memo holds an answer to its text already, or moved
// past its epoch, or e alone outgrows the byte bound.
func (m *memo) put(e *memoEntry) {
	if e.bytes > memoMaxBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.at(e.epoch) || m.entries[e.text] != nil {
		return
	}
	for text, old := range m.entries {
		if len(m.entries) < memoMaxEntries && m.bytes+e.bytes <= memoMaxBytes {
			break
		}
		delete(m.entries, text)
		m.bytes -= old.bytes
		m.evictions.Inc()
	}
	m.entries[e.text] = e
	m.bytes += e.bytes
}

// size returns the bytes the memo's entries hold.
func (m *memo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}
