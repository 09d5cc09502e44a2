package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// opKind is one request type of the /v1 API the benchmark drives.
type opKind int

const (
	opSubmit    opKind = iota // POST /v1/queries
	opBatch                   // POST /v1/queries:batch, batchSize statements
	opKeyword                 // POST /v1/search/keyword, first page
	opSubstring               // POST /v1/search/substring, first page
	opComplete                // POST /v1/assist/complete
	opStats                   // GET /v1/stats
	opHistory                 // GET /v1/history, first page
	opPage2                   // second page of a keyword search; never drawn, only followed
	numOpKinds
)

var opNames = [numOpKinds]string{"submit", "batch", "keyword", "substring", "complete", "stats", "history", "page2"}

func (k opKind) String() string { return opNames[k] }

// batchSize is the statements per batch op: what one flush of the capture
// proxy's sink carries.
const batchSize = 32

// pageSize is the page the interactive client asks for.
const pageSize = 25

// op is one generated request. Everything random about it is drawn here,
// from the seed, before the clock starts: the program under test sees only
// these inputs.
type op struct {
	kind  opKind
	user  int      // index into the synthetic population
	text  string   // SQL, search term, partial query or history owner
	batch []string // opBatch: the statements
	page2 bool     // opKeyword: follow to the second page
}

// mixEntry is one op kind's share of a workload's traffic.
type mixEntry struct {
	kind   opKind
	weight int
}

var keywordTerms = []string{"watertemp", "salinity", "stars", "sensors", "observations", "citylocations", "magnitude", "battery"}

// substringNeedles are identifier fragments: a match on the canonical form
// implies a match on the raw text, which is what the response carries and
// the verifier checks.
var substringNeedles = []string{"watersal", "_day", "magnit", "batter", "flux", "loc_y"}

var completePartials = map[string][]string{
	"limnology": {
		"SELECT * FROM WaterTemp WHERE ",
		"SELECT lake, temp FROM WaterTemp WHERE temp ",
		"SELECT * FROM WaterSalinity WHERE ",
		"SELECT * FROM WaterTemp, ",
	},
	"astro": {
		"SELECT name FROM Stars WHERE ",
		"SELECT * FROM Observations WHERE ",
		"SELECT * FROM Stars, ",
	},
}

// deck deals card values in shuffled rounds: every round holds each card
// exactly as often as it was put in, so any two runs — whatever their seed —
// see the same composition of op kinds and search terms, in a different
// order. Independent draws would let one seed carry 8 % more searches than
// the next, which is run-to-run spread that says nothing about the program.
type deck struct {
	r     *rand.Rand
	cards []int
	pos   int
}

func newDeck(r *rand.Rand, counts ...int) *deck {
	d := &deck{r: r}
	for value, n := range counts {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, value)
		}
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) draw() int {
	if d.pos == len(d.cards) {
		d.r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// uniformDeck deals 0..n-1, each once per round.
func uniformDeck(r *rand.Rand, n int) *deck {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 1
	}
	return newDeck(r, counts...)
}

// generator draws op streams. One math/rand source per concern keeps a
// change to one draw (say, the mix) from shifting every other stream.
type generator struct {
	spec   *workloadSpec
	opRand *rand.Rand
	users  *rand.Zipf
	src    *workload.QuerySource

	kinds, keywords, needles, follow, lookups *deck
	partials                                  map[string]*deck
}

func newGenerator(spec *workloadSpec, seed int64) *generator {
	userRand := rand.New(rand.NewSource(seed*1000003 + 1))
	r := rand.New(rand.NewSource(seed*1000003 + 2))
	weights := make([]int, numOpKinds)
	for _, m := range spec.mix {
		weights[m.kind] = m.weight
	}
	g := &generator{
		spec:   spec,
		opRand: r,
		// A shared log is skewed: a few heavy users write most of it, which
		// is also what gives history pages something to return.
		users:    rand.NewZipf(userRand, 1.2, 8, uint64(spec.users-1)),
		src:      workload.NewQuerySource(seed*1000003 + 3),
		kinds:    newDeck(r, weights...),
		keywords: uniformDeck(r, len(keywordTerms)),
		needles:  uniformDeck(r, len(substringNeedles)),
		follow:   newDeck(r, 4, 1), // a fifth of keyword searches go on to page 2
		lookups:  uniformDeck(r, 4),
		partials: map[string]*deck{},
	}
	for group, p := range completePartials {
		g.partials[group] = uniformDeck(r, len(p))
	}
	return g
}

func (g *generator) user() int { return int(g.users.Uint64()) }

func groupOf(spec *workloadSpec, user int) string { return workload.GroupOf(user, spec.users) }

// sqlFor returns one statement a member of the group would submit on this
// workload: exploratory joins and aggregates, or a cheap templated point
// lookup — the shape an application behind the capture proxy sends.
func (g *generator) sqlFor(group string) string {
	if !g.spec.pointLookups {
		return g.src.Query(group)
	}
	r := g.opRand
	rows := g.spec.rows
	switch g.lookups.draw() {
	case 0:
		return fmt.Sprintf("SELECT name, magnitude FROM Stars WHERE star_id = %d", 1+r.Intn(rows/2+1))
	case 1:
		return fmt.Sprintf("SELECT lake, temp FROM WaterTemp WHERE id = %d", 1+r.Intn(rows))
	case 2:
		return fmt.Sprintf("SELECT flux, band FROM Observations WHERE obs_id = %d", 1+r.Intn(rows))
	default:
		return fmt.Sprintf("SELECT kind, battery FROM Sensors WHERE sensor_id = %d", 1+r.Intn(rows/10+1))
	}
}

// next draws one op.
func (g *generator) next() op {
	o := op{kind: opKind(g.kinds.draw()), user: g.user()}
	group := groupOf(g.spec, o.user)
	switch o.kind {
	case opSubmit:
		o.text = g.sqlFor(group)
	case opBatch:
		o.batch = make([]string, batchSize)
		for i := range o.batch {
			o.batch[i] = g.sqlFor(group)
		}
	case opKeyword:
		o.text = keywordTerms[g.keywords.draw()]
		o.page2 = g.follow.draw() == 1
	case opSubstring:
		o.text = substringNeedles[g.needles.draw()]
	case opComplete:
		o.text = completePartials[group][g.partials[group].draw()]
	case opHistory:
		o.text = workload.UserName(g.user())
	}
	return o
}

// stream generates the n ops the closed-loop clients work through, in order.
func (g *generator) stream(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// preload generates the statements the log holds before the run.
func (g *generator) preload(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		u := g.user()
		ops[i] = op{kind: opSubmit, user: u, text: g.sqlFor(groupOf(g.spec, u))}
	}
	return ops
}

// digest hashes every generated input, so two commits can be shown to have
// been offered byte-identical work.
func digest(streams ...[]op) string {
	h := sha256.New()
	var num [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(num[:], uint64(v))
		h.Write(num[:])
	}
	for _, ops := range streams {
		put(int64(len(ops)))
		for i := range ops {
			o := &ops[i]
			put(int64(o.kind))
			put(int64(o.user))
			if o.page2 {
				put(1)
			}
			h.Write([]byte(o.text))
			for _, s := range o.batch {
				h.Write([]byte(s))
				h.Write([]byte{0})
			}
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
