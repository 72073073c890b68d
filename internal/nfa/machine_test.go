package nfa

import (
	"testing"

	"cepshed/internal/query"
)

func TestCompileQ1(t *testing.T) {
	m := MustCompile(query.Q1("8ms"))
	if m.NumStates() != 3 {
		t.Fatalf("states = %d", m.NumStates())
	}
	// a.ID=b.ID binds at state 1; the other two at state 2.
	if len(m.States[0].Bind) != 0 || len(m.States[1].Bind) != 1 || len(m.States[2].Bind) != 2 {
		t.Errorf("bind counts = %d,%d,%d",
			len(m.States[0].Bind), len(m.States[1].Bind), len(m.States[2].Bind))
	}
	if !m.Final(2) || m.Final(1) {
		t.Error("finality wrong")
	}
	if got := m.IntermediateStates(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("intermediate states = %v", got)
	}
}

func TestCompileKleeneIncremental(t *testing.T) {
	m := MustCompile(query.HotPaths("1h", 4, 0))
	if m.NumStates() != 2 {
		t.Fatalf("states = %d", m.NumStates())
	}
	if len(m.States[0].Incremental) != 2 {
		t.Errorf("incremental preds = %d", len(m.States[0].Incremental))
	}
	if len(m.States[1].Bind) != 2 {
		t.Errorf("bind preds at b = %d", len(m.States[1].Bind))
	}
	if m.States[0].Comp.MinReps != 4 {
		t.Errorf("min reps = %d", m.States[0].Comp.MinReps)
	}
}

func TestCompileNegationGuards(t *testing.T) {
	m := MustCompile(query.Q4("8ms"))
	// Pattern: A, NOT B, C, D -> 3 states, guard attached to state 1 (C).
	if m.NumStates() != 3 {
		t.Fatalf("states = %d", m.NumStates())
	}
	if len(m.States[1].Guards) != 1 {
		t.Fatalf("guards at state 1 = %d", len(m.States[1].Guards))
	}
	g := m.States[1].Guards[0]
	if g.Comp.Type != "B" || len(g.Preds) != 1 {
		t.Errorf("guard = %+v with %d preds", g.Comp, len(g.Preds))
	}
	if len(m.States[0].Guards) != 0 || len(m.States[2].Guards) != 0 {
		t.Error("guards leaked to other states")
	}
}

func TestCompileTrailingKleeneIntermediate(t *testing.T) {
	m := MustCompile(query.MustParse(
		`PATTERN SEQ(A a, B+ b[]) WHERE a.ID = b[i].ID WITHIN 1ms`))
	got := m.IntermediateStates()
	// State 0 (waiting b) and state 1 (open trailing Kleene).
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("intermediate states = %v", got)
	}
}

func TestCompileCompletionPreds(t *testing.T) {
	m := MustCompile(query.MustParse(
		`PATTERN SEQ(A a, A+ b[], B c) WHERE a.ID = b[i].ID AND AVG(b[].V) > a.V WITHIN 1ms`))
	if len(m.Completion) != 1 {
		t.Errorf("completion preds = %d", len(m.Completion))
	}
}

func TestCompileClusterQuery(t *testing.T) {
	m := MustCompile(query.ClusterTasks("1h"))
	if m.NumStates() != 7 {
		t.Fatalf("states = %d", m.NumStates())
	}
	// Every non-initial state carries at least one bind predicate.
	for s := 1; s < m.NumStates(); s++ {
		if len(m.States[s].Bind) == 0 {
			t.Errorf("state %d has no bind predicates", s)
		}
	}
}

func TestJoinKeys(t *testing.T) {
	key := func(attr string, state int, rep RepSel, bound string) *JoinKey {
		return &JoinKey{EventAttr: attr, State: state, Rep: rep, BoundAttr: bound}
	}
	same := func(a, b *JoinKey) bool {
		return (a == nil) == (b == nil) && (a == nil || *a == *b)
	}
	type stateKeys struct{ enter, take *JoinKey }
	cases := []struct {
		name string
		q    *query.Query
		want []stateKeys
	}{
		{"Q1", query.Q1("8ms"), []stateKeys{
			{}, {enter: key("ID", 0, RepSingle, "ID")}, {enter: key("ID", 0, RepSingle, "ID")}}},
		// Q2's final state leads with a.V + c.V = d.V: unkeyed.
		{"Q2", query.Q2("8ms", 1, 3), []stateKeys{
			{},
			{enter: key("ID", 0, RepSingle, "ID"), take: key("ID", 0, RepSingle, "ID")},
			{enter: key("ID", 0, RepSingle, "ID")},
			{}}},
		// The take reads the state's own latest repetition; a run start
		// is not an index reaction, so state 0 has no enter key.
		{"HotPaths", query.HotPaths("1h", 2, 5), []stateKeys{
			{take: key("bike", 0, RepLast, "bike")}, {enter: key("bike", 0, RepLast, "bike")}}},
		// Entering a Kleene state whose key reads its own repetitions is
		// the vacuous first repetition: unkeyed.
		{"own-reps", query.MustParse(`PATTERN SEQ(A a, B+ b[], C c)
			WHERE b[i+1].x = b[i].x AND b[1].x = c.x WITHIN 1ms`), []stateKeys{
			{}, {take: key("x", 1, RepLast, "x")}, {enter: key("x", 1, RepFirst, "x")}}},
		// One key attribute per event type: A's take claims ID, so the
		// proceed on V (same type) stays unkeyed.
		{"split", query.MustParse(`PATTERN SEQ(A+ a[], A b)
			WHERE a[i+1].ID = a[i].ID AND a[last].V = b.V WITHIN 1ms`), []stateKeys{
			{take: key("ID", 0, RepLast, "ID")}, {}}},
	}
	for _, c := range cases {
		m := MustCompile(c.q)
		for s, w := range c.want {
			st := &m.States[s]
			if !same(st.EnterKey, w.enter) || !same(st.TakeKey, w.take) {
				t.Errorf("%s state %d: enter %+v take %+v, want %+v / %+v", c.name, s, st.EnterKey, st.TakeKey, w.enter, w.take)
			}
		}
	}
	g := MustCompile(query.Q4("8ms")).States[1].Guards[0]
	if !same(g.Key, key("ID", 0, RepSingle, "ID")) {
		t.Errorf("Q4 guard key = %+v", g.Key)
	}
}
