package query

import "testing"

func TestAnchorsQ1(t *testing.T) {
	q := Q1("8ms")
	// a.ID=b.ID anchors at b (pos 1); a.ID=c.ID and a.V+b.V=c.V at c (pos 2).
	wantPos := []int{1, 2, 2}
	for i, p := range q.Where {
		if p.Kind != AnchorBind {
			t.Errorf("predicate %d kind = %v, want AnchorBind", i, p.Kind)
		}
		if p.AnchorPos != wantPos[i] {
			t.Errorf("predicate %d anchor = %d, want %d", i, p.AnchorPos, wantPos[i])
		}
	}
	bind, inc := q.PredicatesAt(2)
	if len(bind) != 2 || len(inc) != 0 {
		t.Errorf("PredicatesAt(2) = %d bind, %d incremental", len(bind), len(inc))
	}
}

func TestAnchorsIncremental(t *testing.T) {
	q := HotPaths("1h", 1, 0)
	var inc, bind, complete int
	for _, p := range q.Where {
		switch p.Kind {
		case AnchorIncremental:
			inc++
			if p.AnchorPos != 0 {
				t.Errorf("incremental anchor = %d", p.AnchorPos)
			}
		case AnchorBind:
			bind++
			if p.AnchorPos != 1 {
				t.Errorf("bind anchor = %d", p.AnchorPos)
			}
		case AnchorComplete:
			complete++
		}
	}
	// a[i+1].bike=a[i].bike and a[i+1].start=a[i].end are incremental;
	// a[last].bike=b.bike and b.end IN (...) bind at b.
	if inc != 2 || bind != 2 || complete != 0 {
		t.Errorf("inc=%d bind=%d complete=%d", inc, bind, complete)
	}
}

func TestAnchorPromotionOfLoneI(t *testing.T) {
	// b[i].V = a.V uses [i] without [i+1]: [i] refers to the repetition
	// being bound, so the predicate is incremental at the Kleene.
	q := MustParse(`PATTERN SEQ(A a, A+ b[], B c) WHERE b[i].V = a.V WITHIN 1ms`)
	p := q.Where[0]
	if p.Kind != AnchorIncremental || p.AnchorPos != 1 {
		t.Fatalf("kind=%v anchor=%d", p.Kind, p.AnchorPos)
	}
	for _, r := range p.Refs {
		if r.Var == "b" && r.Index != IdxCurrent {
			t.Errorf("lone [i] not promoted to current: %v", r.Index)
		}
	}
}

func TestAnchorPairedIKeepsPrev(t *testing.T) {
	q := MustParse(`PATTERN SEQ(A+ b[], B c) WHERE b[i+1].V >= b[i].V WITHIN 1ms`)
	p := q.Where[0]
	var kinds []IndexKind
	for _, r := range p.Refs {
		kinds = append(kinds, r.Index)
	}
	if len(kinds) != 2 || kinds[0] != IdxCurrent || kinds[1] != IdxPrev {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestAnchorComplete(t *testing.T) {
	// An aggregate over a Kleene that is the rightmost referenced
	// component checks at completion.
	q := MustParse(`PATTERN SEQ(A a, A+ b[], B c) WHERE AVG(b[].V) > a.V WITHIN 1ms`)
	p := q.Where[0]
	if p.Kind != AnchorComplete {
		t.Fatalf("kind = %v, want AnchorComplete", p.Kind)
	}
	if len(q.CompletionPredicates()) != 1 {
		t.Error("CompletionPredicates missing the aggregate")
	}
	// But if a later variable is referenced, it can bind there.
	q = MustParse(`PATTERN SEQ(A a, A+ b[], B c) WHERE AVG(b[].V) > c.V WITHIN 1ms`)
	if q.Where[0].Kind != AnchorBind || q.Where[0].AnchorPos != 2 {
		t.Errorf("aggregate with later var: kind=%v anchor=%d", q.Where[0].Kind, q.Where[0].AnchorPos)
	}
}

func TestAnchorNegation(t *testing.T) {
	q := Q4("8ms")
	var neg []*Predicate
	for _, p := range q.Where {
		if p.Kind == AnchorNegation {
			neg = append(neg, p)
		}
	}
	if len(neg) != 1 {
		t.Fatalf("negation predicates = %d, want 1", len(neg))
	}
	if neg[0].AnchorPos != 1 {
		t.Errorf("negation anchor = %d", neg[0].AnchorPos)
	}
	if got := q.NegationPredicates(1); len(got) != 1 {
		t.Errorf("NegationPredicates(1) = %d", len(got))
	}
}

func TestAnalyzeRejectsLaterRefs(t *testing.T) {
	bad := []string{
		// Incremental predicate referencing a later variable.
		`PATTERN SEQ(A+ b[], B c) WHERE b[i].V = c.V WITHIN 1ms`,
		// Negation predicate referencing a later variable.
		`PATTERN SEQ(A a, NOT B b, C c) WHERE b.V = c.V WITHIN 1ms`,
		// Indexed negated variable.
		`PATTERN SEQ(A a, NOT B b, C c) WHERE b[last].V = a.V WITHIN 1ms`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestAnalyzeRejectsTwoIncrementalVars(t *testing.T) {
	src := `PATTERN SEQ(A+ a[], B+ b[]) WHERE a[i].V = b[i].V WITHIN 1ms`
	if _, err := Parse(src); err == nil {
		t.Error("two incremental Kleene vars in one predicate should fail")
	}
}

func TestClusterTasksAnchors(t *testing.T) {
	q := ClusterTasks("1h")
	// Every predicate is a plain bind anchored at its later variable.
	for _, p := range q.Where {
		if p.Kind != AnchorBind {
			t.Errorf("predicate %s kind = %v", p, p.Kind)
		}
	}
}

func TestEquiJoin(t *testing.T) {
	type want struct {
		bound, attr string // "" bound: not an equi-join
	}
	cases := []struct {
		q    *Query
		want []want
	}{
		{Q1("8ms"), []want{{"a.ID", "ID"}, {"a.ID", "ID"}, {}}},
		{Q2("8ms", 1, 3), []want{{"a.ID", "ID"}, {"a.ID", "ID"}, {"a.V", "V"}, {}}},
		// Negation: the candidate is the negated variable.
		{Q4("8ms"), []want{{"a.ID", "ID"}, {"a.ID", "ID"}, {"c.ID", "ID"}}},
		// [i] paired with [i+1] is the bound side; [last] before the
		// anchor too; IN is not a comparison.
		{HotPaths("1h", 2, 5), []want{{"a[i].bike", "bike"}, {"a[i].end", "start"}, {"a[last].bike", "bike"}, {}}},
		{MustParse(`PATTERN SEQ(A a, A+ b[], B c)
			WHERE c.x = a.y AND a.V < c.V AND b[1].V = c.V AND a.ID = 3 AND a.V = a.ID + c.V
			AND c.V = c.ID AND AVG(b[].V) = a.V WITHIN 1ms`),
			[]want{{"a.y", "x"}, {}, {"b[1].V", "V"}, {}, {}, {}, {}}},
	}
	for qi, c := range cases {
		for pi, p := range c.q.Where {
			ej, ok := p.EquiJoin()
			w := c.want[pi]
			if ok != (w.bound != "") {
				t.Errorf("q%d %s: EquiJoin ok = %v", qi, p, ok)
				continue
			}
			if ok && (ej.Bound.String() != w.bound || ej.EventAttr != w.attr) {
				t.Errorf("q%d %s: bound %s event attr %s, want %s / %s", qi, p, ej.Bound, ej.EventAttr, w.bound, w.attr)
			}
		}
	}
}
