package query

import "fmt"

// analyze resolves field references against the pattern, promotes Kleene
// index kinds, validates indexing, and assigns each predicate its anchor
// (the pattern position and moment at which it becomes checkable).
func analyze(q *Query) error {
	if len(q.Pattern) == 0 {
		return fmt.Errorf("query: empty pattern")
	}
	seen := map[string]bool{}
	positives := 0
	for i := range q.Pattern {
		c := &q.Pattern[i]
		if seen[c.Var] {
			return fmt.Errorf("query: duplicate variable %s", c.Var)
		}
		seen[c.Var] = true
		if !c.Negated {
			positives++
		}
	}
	if positives == 0 {
		return fmt.Errorf("query: pattern needs at least one positive component")
	}
	if q.Pattern[0].Negated {
		return fmt.Errorf("query: pattern cannot start with a negated component")
	}
	if q.Pattern[len(q.Pattern)-1].Negated {
		return fmt.Errorf("query: pattern cannot end with a negated component")
	}
	if q.Window.Duration <= 0 && q.Window.Count <= 0 {
		return fmt.Errorf("query: window must be positive")
	}
	for _, p := range q.Where {
		if err := analyzePredicate(q, p); err != nil {
			return err
		}
	}
	return nil
}

func analyzePredicate(q *Query, p *Predicate) error {
	// Collect and resolve references.
	var refs []*FieldRef
	var aggDepth int
	var badAgg error
	var walk func(e Expr, inAgg bool)
	walk = func(e Expr, inAgg bool) {
		switch n := e.(type) {
		case *FieldRef:
			refs = append(refs, n)
			if n.Index == IdxAll && !inAgg {
				badAgg = fmt.Errorf("query: %s[] reference only valid inside aggregates", n.Var)
			}
		case *Binary:
			walk(n.L, inAgg)
			walk(n.R, inAgg)
		case *Compare:
			walk(n.L, inAgg)
			walk(n.R, inAgg)
		case *Member:
			walk(n.X, inAgg)
		case *Call:
			agg := n.Fn == FnAvg || n.Fn == FnSum || n.Fn == FnMin || n.Fn == FnMax || n.Fn == FnCount
			for _, a := range n.Args {
				walk(a, inAgg || agg)
			}
			if agg {
				aggDepth++
			}
		}
	}
	walk(p.Expr, false)
	if badAgg != nil {
		return badAgg
	}
	if len(refs) == 0 {
		return fmt.Errorf("query: predicate %s references no pattern variable", p)
	}
	p.Refs = refs

	hasCurrent := map[string]bool{}
	for _, r := range refs {
		c := q.component(r.Var)
		if c == nil {
			return fmt.Errorf("query: unknown variable %s in %s", r.Var, p)
		}
		r.comp = c
		if c.Kleene && r.Index == IdxNone {
			return fmt.Errorf("query: Kleene variable %s must be indexed (e.g. %s[i], %s[last])", r.Var, r.Var, r.Var)
		}
		if !c.Kleene && r.Index != IdxNone {
			return fmt.Errorf("query: variable %s is not Kleene and cannot be indexed", r.Var)
		}
		if c.Negated && r.Index != IdxNone {
			return fmt.Errorf("query: negated variable %s cannot be indexed", r.Var)
		}
		if r.Index == IdxCurrent {
			hasCurrent[r.Var] = true
		}
	}
	// Promote [i] to the current repetition unless the predicate pairs it
	// with [i+1] for the same variable.
	for _, r := range refs {
		if r.Index == IdxPrev && !hasCurrent[r.Var] {
			r.Index = IdxCurrent
		}
	}

	// Classify.
	negPos, incPos := -1, -1
	maxPos, maxIsKleene := -1, false
	for _, r := range refs {
		c := r.comp
		switch {
		case c.Negated:
			if negPos >= 0 && negPos != c.Pos {
				return fmt.Errorf("query: predicate %s references two negated variables", p)
			}
			negPos = c.Pos
		case r.Index == IdxCurrent || r.Index == IdxPrev:
			if incPos >= 0 && incPos != c.Pos {
				return fmt.Errorf("query: predicate %s has incremental references to two Kleene variables", p)
			}
			incPos = c.Pos
		}
		if c.Pos > maxPos {
			maxPos = c.Pos
			maxIsKleene = c.Kleene && r.Index != IdxCurrent && r.Index != IdxPrev
		} else if c.Pos == maxPos && c.Kleene && (r.Index == IdxCurrent || r.Index == IdxPrev) {
			maxIsKleene = false
		}
	}
	switch {
	case negPos >= 0:
		p.Kind = AnchorNegation
		p.AnchorPos = negPos
		for _, r := range refs {
			if !r.comp.Negated && r.comp.Pos > negPos {
				return fmt.Errorf("query: negation predicate %s cannot reference later variable %s", p, r.Var)
			}
		}
	case incPos >= 0:
		p.Kind = AnchorIncremental
		p.AnchorPos = incPos
		for _, r := range refs {
			if r.comp.Pos > incPos {
				return fmt.Errorf("query: incremental predicate %s cannot reference later variable %s", p, r.Var)
			}
		}
	case maxIsKleene:
		// Aggregates or [last]/[first] over the rightmost referenced
		// component, which is Kleene: value keeps changing while the
		// Kleene grows, so check at match completion.
		p.Kind = AnchorComplete
		p.AnchorPos = maxPos
	default:
		p.Kind = AnchorBind
		p.AnchorPos = maxPos
	}
	return nil
}

// PredicatesAt returns the predicates to check when the component at pos
// binds an event (AnchorBind), plus separately the incremental predicates
// for a Kleene component.
func (q *Query) PredicatesAt(pos int) (bind, incremental []*Predicate) {
	for _, p := range q.Where {
		if p.AnchorPos != pos {
			continue
		}
		switch p.Kind {
		case AnchorBind:
			bind = append(bind, p)
		case AnchorIncremental:
			incremental = append(incremental, p)
		}
	}
	return bind, incremental
}

// CompletionPredicates returns the predicates checked at match emission.
func (q *Query) CompletionPredicates() []*Predicate {
	var out []*Predicate
	for _, p := range q.Where {
		if p.Kind == AnchorComplete {
			out = append(out, p)
		}
	}
	return out
}

// NegationPredicates returns the predicates guarding the negated
// component at pos.
func (q *Query) NegationPredicates(pos int) []*Predicate {
	var out []*Predicate
	for _, p := range q.Where {
		if p.Kind == AnchorNegation && p.AnchorPos == pos {
			out = append(out, p)
		}
	}
	return out
}

// EquiJoin describes a predicate of the form bound.f = cand.g: an
// equality between an attribute of an event the match bound earlier and
// an attribute of the candidate event the predicate is evaluated
// against. The engine files partial matches under the bound side's value
// so a candidate only visits the matches that can pass the test.
type EquiJoin struct {
	// Bound reads the already-bound event: a non-Kleene variable, or a
	// Kleene variable indexed [1], [last], or [i] (when paired with
	// [i+1]: the latest repetition).
	Bound *FieldRef
	// EventAttr is the attribute read off the candidate event.
	EventAttr string
}

// EquiJoin reports whether p is an equi-join between a bound position
// and the candidate event. The candidate is the event bound at the
// anchor position (bind predicates), the repetition being taken
// (incremental predicates), or the event of the negated type (negation
// predicates); completion predicates have none.
func (p *Predicate) EquiJoin() (EquiJoin, bool) {
	cmp, ok := p.Expr.(*Compare)
	if !ok || cmp.Op != CmpEq {
		return EquiJoin{}, false
	}
	l, lok := cmp.L.(*FieldRef)
	r, rok := cmp.R.(*FieldRef)
	if !lok || !rok || l.comp == nil || r.comp == nil {
		return EquiJoin{}, false
	}
	switch {
	case p.readsCandidate(l) && p.readsBound(r):
		return EquiJoin{Bound: r, EventAttr: l.Attr}, true
	case p.readsCandidate(r) && p.readsBound(l):
		return EquiJoin{Bound: l, EventAttr: r.Attr}, true
	}
	return EquiJoin{}, false
}

// readsCandidate reports whether r resolves to the event p is evaluated
// against rather than to one the match already holds.
func (p *Predicate) readsCandidate(r *FieldRef) bool {
	switch p.Kind {
	case AnchorNegation:
		return r.comp.Negated
	case AnchorIncremental:
		return r.comp.Pos == p.AnchorPos && r.Index == IdxCurrent
	case AnchorBind:
		return r.comp.Pos == p.AnchorPos && !r.comp.Kleene
	}
	return false
}

// readsBound reports whether r resolves to an event bound before the
// candidate arrived, whose value is therefore fixed for the lifetime of
// the (immutable) partial match.
func (p *Predicate) readsBound(r *FieldRef) bool {
	c := r.comp
	if c.Negated || c.Pos > p.AnchorPos {
		return false
	}
	if !c.Kleene {
		return c.Pos < p.AnchorPos
	}
	return r.Index == IdxFirst || r.Index == IdxLast || r.Index == IdxPrev
}
