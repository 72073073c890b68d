package query

import (
	"fmt"
	"math"
	"testing"

	"cepshed/internal/event"
)

// fakeBinding implements Binding for evaluation tests.
type fakeBinding struct {
	singles map[int]*event.Event
	kleenes map[int][]*event.Event
	current *event.Event
}

func (b *fakeBinding) Single(pos int) *event.Event   { return b.singles[pos] }
func (b *fakeBinding) Kleene(pos int) []*event.Event { return b.kleenes[pos] }
func (b *fakeBinding) Current() *event.Event         { return b.current }

func ev(typ string, attrs map[string]event.Value) *event.Event {
	return event.New(typ, 0, attrs)
}

func TestEvalQ1Predicates(t *testing.T) {
	q := Q1("8ms")
	b := &fakeBinding{singles: map[int]*event.Event{
		0: ev("A", map[string]event.Value{"ID": event.Int(3), "V": event.Int(2)}),
		1: ev("B", map[string]event.Value{"ID": event.Int(3), "V": event.Int(5)}),
		2: ev("C", map[string]event.Value{"ID": event.Int(3), "V": event.Int(7)}),
	}}
	for i, p := range q.Where {
		ok, err := EvalPredicate(p, b)
		if err != nil {
			t.Fatalf("predicate %d: %v", i, err)
		}
		if !ok {
			t.Errorf("predicate %d (%s) should hold", i, p)
		}
	}
	// Break the sum condition: a.V+b.V != c.V.
	b.singles[2] = ev("C", map[string]event.Value{"ID": event.Int(3), "V": event.Int(8)})
	ok, err := EvalPredicate(q.Where[2], b)
	if err != nil || ok {
		t.Errorf("sum predicate should fail: ok=%v err=%v", ok, err)
	}
}

func TestEvalIncrementalKleene(t *testing.T) {
	q := HotPaths("1h", 1, 0)
	// Incremental predicates: a[i+1].bike=a[i].bike, a[i+1].start=a[i].end.
	var inc []*Predicate
	for _, p := range q.Where {
		if p.Kind == AnchorIncremental {
			inc = append(inc, p)
		}
	}
	prev := ev("BikeTrip", map[string]event.Value{
		"bike": event.Int(9), "start": event.Int(1), "end": event.Int(2)})
	good := ev("BikeTrip", map[string]event.Value{
		"bike": event.Int(9), "start": event.Int(2), "end": event.Int(3)})
	bad := ev("BikeTrip", map[string]event.Value{
		"bike": event.Int(9), "start": event.Int(5), "end": event.Int(6)})

	b := &fakeBinding{kleenes: map[int][]*event.Event{0: {prev}}, current: good}
	for _, p := range inc {
		if ok, err := EvalPredicate(p, b); err != nil || !ok {
			t.Errorf("chained trip should satisfy %s: ok=%v err=%v", p, ok, err)
		}
	}
	b.current = bad
	okCount := 0
	for _, p := range inc {
		if ok, _ := EvalPredicate(p, b); ok {
			okCount++
		}
	}
	if okCount != 1 { // bike matches, start/end chain does not
		t.Errorf("disconnected trip satisfied %d incremental predicates, want 1", okCount)
	}
}

func TestEvalVacuousFirstRepetition(t *testing.T) {
	q := MustParse(`PATTERN SEQ(A+ b[], B c) WHERE b[i+1].V >= b[i].V WITHIN 1ms`)
	b := &fakeBinding{
		kleenes: map[int][]*event.Event{0: nil}, // no previous repetition
		current: ev("A", map[string]event.Value{"V": event.Int(1)}),
	}
	_, err := EvalPredicate(q.Where[0], b)
	if !IsVacuous(err) {
		t.Fatalf("expected vacuous error, got %v", err)
	}
}

func TestEvalAggregateOverKleene(t *testing.T) {
	q := MustParse(`PATTERN SEQ(A a, A+ b[], B c) WHERE AVG(b[].V) > a.V WITHIN 1ms`)
	b := &fakeBinding{
		singles: map[int]*event.Event{0: ev("A", map[string]event.Value{"V": event.Int(3)})},
		kleenes: map[int][]*event.Event{1: {
			ev("A", map[string]event.Value{"V": event.Int(2)}),
			ev("A", map[string]event.Value{"V": event.Int(6)}),
		}},
	}
	// AVG(2,6) = 4 > 3.
	if ok, err := EvalPredicate(q.Where[0], b); err != nil || !ok {
		t.Errorf("avg predicate: ok=%v err=%v", ok, err)
	}
}

func TestEvalAggregateFunctions(t *testing.T) {
	mk := func(fn string) *Query {
		return MustParse(`PATTERN SEQ(A a, A+ b[], B c) WHERE ` + fn + ` WITHIN 1ms`)
	}
	b := &fakeBinding{
		singles: map[int]*event.Event{0: ev("A", map[string]event.Value{"V": event.Int(1)})},
		kleenes: map[int][]*event.Event{1: {
			ev("A", map[string]event.Value{"V": event.Int(2)}),
			ev("A", map[string]event.Value{"V": event.Int(4)}),
			ev("A", map[string]event.Value{"V": event.Int(9)}),
		}},
	}
	cases := []struct {
		pred string
		want bool
	}{
		{`SUM(b[].V) = 15`, true},
		{`MIN(b[].V) = 2`, true},
		{`MAX(b[].V) = 9`, true},
		{`COUNT(b[].V) = 3`, true},
		{`AVG(b[].V) = 5`, true},
		{`SUM(b[].V) = 14`, false},
	}
	for _, c := range cases {
		q := mk(c.pred)
		ok, err := EvalPredicate(q.Where[0], b)
		if err != nil {
			t.Fatalf("%s: %v", c.pred, err)
		}
		if ok != c.want {
			t.Errorf("%s = %v, want %v", c.pred, ok, c.want)
		}
	}
}

func TestEvalQ3Aggregate(t *testing.T) {
	q := Q3("8ms")
	b := &fakeBinding{singles: map[int]*event.Event{
		0: ev("A", map[string]event.Value{"ID": event.Int(1), "x": event.Float(3), "y": event.Float(4)}),
		1: ev("B", map[string]event.Value{"ID": event.Int(1), "x": event.Float(6), "y": event.Float(8), "v": event.Float(5)}),
		2: ev("C", map[string]event.Value{"ID": event.Int(1), "v": event.Float(5)}),
		3: ev("D", map[string]event.Value{"ID": event.Int(1), "v": event.Float(5)}),
	}}
	// AVG(5, 10) = 7.5 > c.v = 5.
	var aggPred *Predicate
	for _, p := range q.Where {
		if _, isCall := findCall(p.Expr); isCall {
			aggPred = p
		}
	}
	if aggPred == nil {
		t.Fatal("aggregate predicate not found")
	}
	if ok, err := EvalPredicate(aggPred, b); err != nil || !ok {
		t.Errorf("Q3 aggregate: ok=%v err=%v", ok, err)
	}
}

func findCall(e Expr) (*Call, bool) {
	var c *Call
	e.walk(func(x Expr) {
		if call, ok := x.(*Call); ok && c == nil {
			c = call
		}
	})
	return c, c != nil
}

func TestEvalNegationPredicate(t *testing.T) {
	q := Q4("8ms")
	neg := q.NegationPredicates(1)[0]
	b := &fakeBinding{
		singles: map[int]*event.Event{0: ev("A", map[string]event.Value{"ID": event.Int(7)})},
		current: ev("B", map[string]event.Value{"ID": event.Int(7)}),
	}
	if ok, err := EvalPredicate(neg, b); err != nil || !ok {
		t.Errorf("matching B should satisfy negation guard: ok=%v err=%v", ok, err)
	}
	b.current = ev("B", map[string]event.Value{"ID": event.Int(8)})
	if ok, _ := EvalPredicate(neg, b); ok {
		t.Error("non-matching B must not satisfy the guard")
	}
}

func TestEvalErrors(t *testing.T) {
	q := MustParse(`PATTERN SEQ(A a, B b) WHERE a.V / b.V = 1 WITHIN 1ms`)
	b := &fakeBinding{singles: map[int]*event.Event{
		0: ev("A", map[string]event.Value{"V": event.Int(4)}),
		1: ev("B", map[string]event.Value{"V": event.Int(0)}),
	}}
	if _, err := EvalPredicate(q.Where[0], b); err == nil {
		t.Error("division by zero should error")
	}
	// Missing attribute.
	b.singles[1] = ev("B", nil)
	if _, err := EvalPredicate(q.Where[0], b); err == nil {
		t.Error("missing attribute should error")
	}
	// Unbound variable.
	b.singles[1] = nil
	if _, err := EvalPredicate(q.Where[0], b); err == nil {
		t.Error("unbound variable should error")
	}
	// Arithmetic on strings.
	q2 := MustParse(`PATTERN SEQ(A a) WHERE a.S + 1 = 2 WITHIN 1ms`)
	b2 := &fakeBinding{singles: map[int]*event.Event{
		0: ev("A", map[string]event.Value{"S": event.Str("x")}),
	}}
	if _, err := EvalPredicate(q2.Where[0], b2); err == nil {
		t.Error("string arithmetic should error")
	}
	// SQRT of a negative value.
	q3 := MustParse(`PATTERN SEQ(A a) WHERE SQRT(a.V) = 2 WITHIN 1ms`)
	b3 := &fakeBinding{singles: map[int]*event.Event{
		0: ev("A", map[string]event.Value{"V": event.Int(-4)}),
	}}
	if _, err := EvalPredicate(q3.Where[0], b3); err == nil {
		t.Error("sqrt of negative should error")
	}
}

func TestEvalSqrtAbsPow(t *testing.T) {
	q := MustParse(`PATTERN SEQ(A a) WHERE SQRT(a.x^2 + a.y^2) = 5 AND ABS(a.z) = 2 WITHIN 1ms`)
	b := &fakeBinding{singles: map[int]*event.Event{
		0: ev("A", map[string]event.Value{
			"x": event.Float(3), "y": event.Float(4), "z": event.Float(-2)}),
	}}
	for i, p := range q.Where {
		if ok, err := EvalPredicate(p, b); err != nil || !ok {
			t.Errorf("predicate %d: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestEvalUnaryMinus(t *testing.T) {
	q := MustParse(`PATTERN SEQ(A a) WHERE -a.V = -3 WITHIN 1ms`)
	b := &fakeBinding{singles: map[int]*event.Event{
		0: ev("A", map[string]event.Value{"V": event.Int(3)}),
	}}
	if ok, err := EvalPredicate(q.Where[0], b); err != nil || !ok {
		t.Errorf("unary minus: ok=%v err=%v", ok, err)
	}
}

func TestEvalStringMembership(t *testing.T) {
	q := MustParse(`PATTERN SEQ(A a) WHERE a.user IN ('member', 'staff') WITHIN 1ms`)
	b := &fakeBinding{singles: map[int]*event.Event{
		0: ev("A", map[string]event.Value{"user": event.Str("member")}),
	}}
	if ok, err := EvalPredicate(q.Where[0], b); err != nil || !ok {
		t.Errorf("membership: ok=%v err=%v", ok, err)
	}
	b.singles[0] = ev("A", map[string]event.Value{"user": event.Str("casual")})
	if ok, _ := EvalPredicate(q.Where[0], b); ok {
		t.Error("casual should not be a member")
	}
}

// EvalPredicate evaluates an analyzed predicate under a binding by
// walking its AST: the reference the compiled-vs-interpreted suite
// (compile_test.go) holds CompiledPredicate.Eval to, result and error
// identity alike. Missing attributes, unbound variables, and type
// errors yield an error.
func EvalPredicate(p *Predicate, b Binding) (bool, error) {
	ev := evaluator{b: b, allIdx: -1}
	return ev.evalBool(p.Expr)
}

type evaluator struct {
	b      Binding
	allIdx int // >= 0 while expanding an IdxAll reference
}

func (ev *evaluator) evalBool(e Expr) (bool, error) {
	switch n := e.(type) {
	case *Compare:
		l, err := ev.eval(n.L)
		if err != nil {
			return false, err
		}
		r, err := ev.eval(n.R)
		if err != nil {
			return false, err
		}
		return compare(n.Op, l, r), nil
	case *Member:
		x, err := ev.eval(n.X)
		if err != nil {
			return false, err
		}
		for _, v := range n.Values {
			if x.Equal(v) {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("query: expression %s is not boolean", e)
	}
}

func (ev *evaluator) eval(e Expr) (event.Value, error) {
	switch n := e.(type) {
	case *Literal:
		return n.Val, nil
	case *FieldRef:
		return ev.evalRef(n)
	case *Binary:
		l, err := ev.eval(n.L)
		if err != nil {
			return event.Value{}, err
		}
		r, err := ev.eval(n.R)
		if err != nil {
			return event.Value{}, err
		}
		return arith(n.Op, l, r)
	case *Call:
		return ev.evalCall(n)
	default:
		return event.Value{}, fmt.Errorf("query: cannot evaluate %s as a value", e)
	}
}

func (ev *evaluator) evalRef(r *FieldRef) (event.Value, error) {
	c := r.comp
	if c == nil {
		return event.Value{}, fmt.Errorf("query: unresolved reference %s", r)
	}
	var e *event.Event
	switch {
	case c.Negated:
		e = ev.b.Current()
	case !c.Kleene:
		e = ev.b.Single(c.Pos)
	default:
		reps := ev.b.Kleene(c.Pos)
		switch r.Index {
		case IdxCurrent:
			e = ev.b.Current()
		case IdxPrev:
			if len(reps) == 0 {
				return event.Value{}, errNoPrev
			}
			e = reps[len(reps)-1]
		case IdxFirst:
			if len(reps) == 0 {
				return event.Value{}, fmt.Errorf("query: %s has no repetitions", r.Var)
			}
			e = reps[0]
		case IdxLast:
			if len(reps) == 0 {
				return event.Value{}, fmt.Errorf("query: %s has no repetitions", r.Var)
			}
			e = reps[len(reps)-1]
		case IdxAll:
			if ev.allIdx < 0 || ev.allIdx >= len(reps) {
				return event.Value{}, fmt.Errorf("query: %s[] outside aggregate expansion", r.Var)
			}
			e = reps[ev.allIdx]
		}
	}
	if e == nil {
		return event.Value{}, fmt.Errorf("query: variable %s is not bound", r.Var)
	}
	v, ok := e.Get(r.Attr)
	if !ok {
		return event.Value{}, fmt.Errorf("query: event %s has no attribute %s", e.Type, r.Attr)
	}
	return v, nil
}

func (ev *evaluator) evalCall(c *Call) (event.Value, error) {
	switch c.Fn {
	case FnSqrt, FnAbs:
		v, err := ev.eval(c.Args[0])
		if err != nil {
			return event.Value{}, err
		}
		if !v.IsNumeric() {
			return event.Value{}, fmt.Errorf("query: %s of non-numeric %s", c.Fn, v)
		}
		if c.Fn == FnAbs {
			return event.Float(math.Abs(v.AsFloat())), nil
		}
		f := v.AsFloat()
		if f < 0 {
			return event.Value{}, fmt.Errorf("query: SQRT of negative value %v", f)
		}
		return event.Float(math.Sqrt(f)), nil
	}
	// Aggregates: expand each argument; arguments containing k[] refs
	// contribute one value per repetition.
	var vals []float64
	for _, a := range c.Args {
		allVar := findAllRef(a)
		if allVar == nil {
			v, err := ev.eval(a)
			if err != nil {
				return event.Value{}, err
			}
			if !v.IsNumeric() {
				return event.Value{}, fmt.Errorf("query: aggregate over non-numeric %s", v)
			}
			vals = append(vals, v.AsFloat())
			continue
		}
		reps := ev.b.Kleene(allVar.comp.Pos)
		for j := range reps {
			sub := evaluator{b: ev.b, allIdx: j}
			v, err := sub.eval(a)
			if err != nil {
				return event.Value{}, err
			}
			if !v.IsNumeric() {
				return event.Value{}, fmt.Errorf("query: aggregate over non-numeric %s", v)
			}
			vals = append(vals, v.AsFloat())
		}
	}
	if c.Fn == FnCount {
		return event.Int(int64(len(vals))), nil
	}
	if len(vals) == 0 {
		return event.Value{}, fmt.Errorf("query: %s over empty set", c.Fn)
	}
	switch c.Fn {
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
		return event.Value{}, fmt.Errorf("query: unknown function %s", c.Fn)
	}
}
