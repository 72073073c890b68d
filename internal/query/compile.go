package query

import (
	"fmt"
	"math"

	"cepshed/internal/event"
)

// This file compiles analyzed predicates into closure chains so the engine
// hot path evaluates them without walking the AST: every type switch,
// field-reference resolution, and index-kind dispatch is done once at
// compile time, and the per-evaluation residue is a tree of direct
// closure calls. Compiled evaluation is behaviourally identical to the
// AST-walking reference in eval_test.go — including error identity for
// the vacuous first-Kleene-repetition sentinel (IsVacuous) — which
// compile_test.go checks differentially.

// boolProg evaluates a compiled boolean expression. allIdx is the k[]
// expansion cursor (-1 outside aggregate expansion).
type boolProg func(b Binding, allIdx int) (bool, error)

// valProg evaluates a compiled value expression.
type valProg func(b Binding, allIdx int) (event.Value, error)

// CompiledPredicate is a predicate compiled into a closure chain.
type CompiledPredicate struct {
	// Src is the predicate this program was compiled from.
	Src *Predicate
	fn  boolProg
}

// Eval evaluates the compiled predicate under a binding. Missing
// attributes, unbound variables, and type errors yield an error; callers
// generally treat an error as "predicate not satisfied".
func (c *CompiledPredicate) Eval(b Binding) (bool, error) {
	return c.fn(b, -1)
}

// CompilePredicate compiles one predicate.
func CompilePredicate(p *Predicate) CompiledPredicate {
	return CompiledPredicate{Src: p, fn: compileBool(p.Expr)}
}

// CompilePredicates compiles a conjunction, preserving order.
func CompilePredicates(ps []*Predicate) []CompiledPredicate {
	if len(ps) == 0 {
		return nil
	}
	out := make([]CompiledPredicate, len(ps))
	for i, p := range ps {
		out[i] = CompilePredicate(p)
	}
	return out
}

func compileBool(e Expr) boolProg {
	switch n := e.(type) {
	case *Compare:
		l, r := compileVal(n.L), compileVal(n.R)
		op := n.Op
		return func(b Binding, allIdx int) (bool, error) {
			lv, err := l(b, allIdx)
			if err != nil {
				return false, err
			}
			rv, err := r(b, allIdx)
			if err != nil {
				return false, err
			}
			return compare(op, lv, rv), nil
		}
	case *Member:
		x := compileVal(n.X)
		values := n.Values
		return func(b Binding, allIdx int) (bool, error) {
			xv, err := x(b, allIdx)
			if err != nil {
				return false, err
			}
			for _, v := range values {
				if xv.Equal(v) {
					return true, nil
				}
			}
			return false, nil
		}
	default:
		err := fmt.Errorf("query: expression %s is not boolean", e)
		return func(Binding, int) (bool, error) { return false, err }
	}
}

func compileVal(e Expr) valProg {
	switch n := e.(type) {
	case *Literal:
		v := n.Val
		return func(Binding, int) (event.Value, error) { return v, nil }
	case *FieldRef:
		return compileRef(n)
	case *Binary:
		l, r := compileVal(n.L), compileVal(n.R)
		op := n.Op
		return func(b Binding, allIdx int) (event.Value, error) {
			lv, err := l(b, allIdx)
			if err != nil {
				return event.Value{}, err
			}
			rv, err := r(b, allIdx)
			if err != nil {
				return event.Value{}, err
			}
			return arith(op, lv, rv)
		}
	case *Call:
		return compileCall(n)
	default:
		err := fmt.Errorf("query: cannot evaluate %s as a value", e)
		return func(Binding, int) (event.Value, error) { return event.Value{}, err }
	}
}

// compileRef resolves the component, index kind, and attribute of a field
// reference once, leaving only the per-evaluation slice/map accesses.
func compileRef(r *FieldRef) valProg {
	c := r.comp
	if c == nil {
		err := fmt.Errorf("query: unresolved reference %s", r)
		return func(Binding, int) (event.Value, error) { return event.Value{}, err }
	}
	attr := r.Attr
	errUnbound := fmt.Errorf("query: variable %s is not bound", r.Var)
	// Events come from outside the program, so a missing attribute is an
	// ordinary outcome, evaluated once per partial match the event meets:
	// the error is built here, not per evaluation (callers only test it
	// for nil and IsVacuous). It names the component's declared type, which
	// is the type of every event the engine resolves the reference to.
	errNoAttr := fmt.Errorf("query: event %s has no attribute %s", c.Type, attr)
	// getAttr is the shared slow-path helper; the two hottest reference
	// kinds (negated/current and non-Kleene single) inline the attribute
	// lookup to avoid an extra indirect call per evaluation.
	getAttr := func(e *event.Event) (event.Value, error) {
		if e == nil {
			return event.Value{}, errUnbound
		}
		v, ok := e.Get(attr)
		if !ok {
			return event.Value{}, errNoAttr
		}
		return v, nil
	}
	switch {
	case c.Negated:
		return func(b Binding, _ int) (event.Value, error) {
			e := b.Current()
			if e == nil {
				return event.Value{}, errUnbound
			}
			v, ok := e.Attrs[attr]
			if !ok {
				return event.Value{}, errNoAttr
			}
			return v, nil
		}
	case !c.Kleene:
		pos := c.Pos
		return func(b Binding, _ int) (event.Value, error) {
			e := b.Single(pos)
			if e == nil {
				return event.Value{}, errUnbound
			}
			v, ok := e.Attrs[attr]
			if !ok {
				return event.Value{}, errNoAttr
			}
			return v, nil
		}
	}
	pos := c.Pos
	switch r.Index {
	case IdxCurrent:
		return func(b Binding, _ int) (event.Value, error) {
			return getAttr(b.Current())
		}
	case IdxPrev:
		return func(b Binding, _ int) (event.Value, error) {
			reps := b.Kleene(pos)
			if len(reps) == 0 {
				return event.Value{}, errNoPrev
			}
			return getAttr(reps[len(reps)-1])
		}
	case IdxFirst:
		errEmpty := fmt.Errorf("query: %s has no repetitions", r.Var)
		return func(b Binding, _ int) (event.Value, error) {
			reps := b.Kleene(pos)
			if len(reps) == 0 {
				return event.Value{}, errEmpty
			}
			return getAttr(reps[0])
		}
	case IdxLast:
		errEmpty := fmt.Errorf("query: %s has no repetitions", r.Var)
		return func(b Binding, _ int) (event.Value, error) {
			reps := b.Kleene(pos)
			if len(reps) == 0 {
				return event.Value{}, errEmpty
			}
			return getAttr(reps[len(reps)-1])
		}
	case IdxAll:
		errOutside := fmt.Errorf("query: %s[] outside aggregate expansion", r.Var)
		return func(b Binding, allIdx int) (event.Value, error) {
			reps := b.Kleene(pos)
			if allIdx < 0 || allIdx >= len(reps) {
				return event.Value{}, errOutside
			}
			return getAttr(reps[allIdx])
		}
	default:
		// A bare reference to a Kleene variable resolves to no event, like
		// the reference walker's unmatched index switch.
		return func(Binding, int) (event.Value, error) { return event.Value{}, errUnbound }
	}
}

func compileCall(c *Call) valProg {
	switch c.Fn {
	case FnSqrt, FnAbs:
		arg := compileVal(c.Args[0])
		fn := c.Fn
		return func(b Binding, allIdx int) (event.Value, error) {
			v, err := arg(b, allIdx)
			if err != nil {
				return event.Value{}, err
			}
			if !v.IsNumeric() {
				return event.Value{}, fmt.Errorf("query: %s of non-numeric %s", fn, v)
			}
			if fn == FnAbs {
				return event.Float(math.Abs(v.AsFloat())), nil
			}
			f := v.AsFloat()
			if f < 0 {
				return event.Value{}, fmt.Errorf("query: SQRT of negative value %v", f)
			}
			return event.Float(math.Sqrt(f)), nil
		}
	}
	// Aggregate: precompute, per argument, whether it expands over a k[]
	// reference (and which Kleene position drives the expansion).
	type aggArg struct {
		prog   valProg
		allPos int // Kleene position of the k[] ref, or -1
	}
	args := make([]aggArg, len(c.Args))
	for i, a := range c.Args {
		args[i] = aggArg{prog: compileVal(a), allPos: -1}
		if r := findAllRef(a); r != nil {
			if r.comp == nil {
				err := fmt.Errorf("query: unresolved reference %s", r)
				return func(Binding, int) (event.Value, error) { return event.Value{}, err }
			}
			args[i].allPos = r.comp.Pos
		}
	}
	fn := c.Fn
	return func(b Binding, allIdx int) (event.Value, error) {
		var buf [8]float64
		vals := buf[:0]
		for _, a := range args {
			if a.allPos < 0 {
				v, err := a.prog(b, allIdx)
				if err != nil {
					return event.Value{}, err
				}
				if !v.IsNumeric() {
					return event.Value{}, fmt.Errorf("query: aggregate over non-numeric %s", v)
				}
				vals = append(vals, v.AsFloat())
				continue
			}
			reps := b.Kleene(a.allPos)
			for j := range reps {
				v, err := a.prog(b, j)
				if err != nil {
					return event.Value{}, err
				}
				if !v.IsNumeric() {
					return event.Value{}, fmt.Errorf("query: aggregate over non-numeric %s", v)
				}
				vals = append(vals, v.AsFloat())
			}
		}
		if fn == FnCount {
			return event.Int(int64(len(vals))), nil
		}
		if len(vals) == 0 {
			return event.Value{}, fmt.Errorf("query: %s over empty set", fn)
		}
		switch fn {
		case FnAvg:
			var s float64
			for _, v := range vals {
				s += v
			}
			return event.Float(s / float64(len(vals))), nil
		case FnSum:
			var s float64
			for _, v := range vals {
				s += v
			}
			return event.Float(s), nil
		case FnMin:
			m := vals[0]
			for _, v := range vals[1:] {
				if v < m {
					m = v
				}
			}
			return event.Float(m), nil
		case FnMax:
			m := vals[0]
			for _, v := range vals[1:] {
				if v > m {
					m = v
				}
			}
			return event.Float(m), nil
		default:
			return event.Value{}, fmt.Errorf("query: unknown function %s", fn)
		}
	}
}
