package workload

import (
	"math/rand"
	"strconv"
)

// This file adapts the session-structured topic templates for open-loop load
// generation, where each arrival is an independent query rather than a step
// in a scripted session. The open-loop harness (internal/workload/openloop)
// lives in a subpackage so it can import internal/client without creating a
// test import cycle through internal/server.

// GroupOf returns the group of the idx-th synthetic user under the standard
// population split: the first two thirds are limnologists, the rest
// astronomers. Generate, the open-loop harness and the repository benchmark
// all split their users by it.
func GroupOf(idx, population int) string {
	if population > 0 && idx >= population*2/3 {
		return "astro"
	}
	return "limnology"
}

// UserName returns the canonical name of the idx-th synthetic user: "user"
// and idx zero-padded to seven places, sign included, as fmt's "user%07d"
// prints it. The width accommodates populations up to 10^7 while sorting
// lexicographically. The repository benchmark names a user per operation, so
// it formats without fmt.
func UserName(idx int) string {
	const zeros = "0000000"
	digits := strconv.Itoa(idx)
	sign := ""
	if idx < 0 {
		sign, digits = "-", digits[1:]
	}
	return "user" + sign + zeros[:max(0, len(zeros)-len(sign)-len(digits))] + digits
}

// QuerySource generates standalone exploratory queries from the topic
// templates. Unlike Generate it has no session structure: every call is an
// independent draw, which is what an open-loop arrival process needs. It is
// not safe for concurrent use; the open-loop dispatcher owns one.
type QuerySource struct {
	r      *rand.Rand
	topics []topic
}

// NewQuerySource returns a deterministic query source.
func NewQuerySource(seed int64) *QuerySource {
	return &QuerySource{r: rand.New(rand.NewSource(seed)), topics: allTopics()}
}

// Query returns one exploratory query a member of group would plausibly
// issue: a topic start template, or one evolution step applied to it.
func (s *QuerySource) Query(group string) string {
	tp := pickTopic(s.r, s.topics, group)
	q := tp.start(s.r)
	if s.r.Intn(2) == 1 {
		q = tp.steps[s.r.Intn(len(tp.steps))](s.r, q)
	}
	return q
}
