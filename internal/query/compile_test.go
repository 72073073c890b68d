package query

import (
	"math/rand"
	"testing"

	"cepshed/internal/event"
)

// testBinding is a direct position-indexed binding for compiler tests.
type testBinding struct {
	singles map[int]*event.Event
	kleene  map[int][]*event.Event
	current *event.Event
}

func (b testBinding) Single(pos int) *event.Event   { return b.singles[pos] }
func (b testBinding) Kleene(pos int) []*event.Event { return b.kleene[pos] }
func (b testBinding) Current() *event.Event         { return b.current }

// randomEvent builds an event whose attributes are randomly present, so
// missing-attribute and unbound-variable error paths are exercised too.
func randomEvent(rng *rand.Rand, typ string, attrs []string) *event.Event {
	m := map[string]event.Value{}
	for _, a := range attrs {
		switch rng.Intn(4) {
		case 0: // absent
		case 1:
			m[a] = event.Int(int64(rng.Intn(10) + 1))
		case 2:
			m[a] = event.Float(rng.Float64()*10 + 0.5)
		case 3:
			m[a] = event.Str("s" + string(rune('a'+rng.Intn(3))))
		}
	}
	return event.New(typ, event.Time(rng.Intn(1000)), m)
}

// TestCompiledMatchesInterpreter checks, for every predicate of every
// paper query (plus grammar-corner queries), that the compiled program
// and the AST interpreter agree on result, error presence and
// vacuousness across randomized bindings. Error text is not compared:
// the compiled program returns errors built at compile time (a missing
// attribute names the component's declared type, the interpreter the
// event's), and the engine only ever tests them for nil and IsVacuous.
func TestCompiledMatchesInterpreter(t *testing.T) {
	queries := []*Query{
		Q1("8ms"),
		Q2("8ms", 1, 3),
		Q3("8ms"),
		Q4("8ms"),
		HotPaths("5 min", 2, 5),
		ClusterTasks("1h"),
		MustParse(`PATTERN SEQ(A a, A+ b[], B c)
			WHERE a.V IN (1, 2, 3) AND COUNT(b[].V) >= 1 AND SUM(b[].V, a.V) > 4
			AND MIN(b[].V) < MAX(b[].V) AND ABS(a.V - c.V) <= 5 AND SQRT(a.V) < 4
			WITHIN 1ms`),
		MustParse(`PATTERN SEQ(A a, A+ b[]) WHERE b[i+1].V > b[i].V AND b[1].V < b[last].V WITHIN 1ms`),
	}
	attrs := []string{"ID", "V", "x", "y", "v", "bike", "start", "end", "task", "machine"}
	for qi, q := range queries {
		rng := rand.New(rand.NewSource(int64(qi)*101 + 7))
		for trial := 0; trial < 400; trial++ {
			b := testBinding{singles: map[int]*event.Event{}, kleene: map[int][]*event.Event{}}
			for _, c := range q.Pattern {
				if rng.Intn(5) == 0 {
					continue // leave unbound sometimes
				}
				if c.Kleene {
					n := rng.Intn(4)
					reps := make([]*event.Event, n)
					for i := range reps {
						reps[i] = randomEvent(rng, c.Type, attrs)
					}
					b.kleene[c.Pos] = reps
				} else {
					b.singles[c.Pos] = randomEvent(rng, c.Type, attrs)
				}
			}
			if rng.Intn(4) != 0 {
				b.current = randomEvent(rng, "X", attrs)
			}
			for pi, p := range q.Where {
				cp := CompilePredicate(p)
				wantOK, wantErr := EvalPredicate(p, b)
				gotOK, gotErr := cp.Eval(b)
				if wantOK != gotOK {
					t.Fatalf("q%d trial %d pred %d (%s): interpreted %v, compiled %v", qi, trial, pi, p, wantOK, gotOK)
				}
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("q%d trial %d pred %d (%s): err %v vs %v", qi, trial, pi, p, wantErr, gotErr)
				}
				if IsVacuous(wantErr) != IsVacuous(gotErr) {
					t.Fatalf("q%d trial %d pred %d: vacuous divergence", qi, trial, pi)
				}
			}
		}
	}
}

// TestCompiledPredicateSrc checks the compiled form keeps its source.
func TestCompiledPredicateSrc(t *testing.T) {
	q := Q1("8ms")
	for _, p := range q.Where {
		if cp := CompilePredicate(p); cp.Src != p {
			t.Fatal("Src not preserved")
		}
	}
	if got := CompilePredicates(nil); got != nil {
		t.Fatal("empty conjunction should compile to nil")
	}
}

// An event without a referenced attribute is ordinary input; evaluating
// a predicate against it must not allocate (it used to format an error
// per evaluation, which the engine then threw away).
func TestMissingAttributeDoesNotAllocate(t *testing.T) {
	for _, q := range []*Query{Q1("8ms"), Q4("8ms"), HotPaths("5 min", 2, 5)} {
		b := &testBinding{singles: map[int]*event.Event{}, kleene: map[int][]*event.Event{}}
		bare := event.New("X", 0, nil)
		for _, c := range q.Pattern {
			b.singles[c.Pos] = bare
			b.kleene[c.Pos] = []*event.Event{bare, bare}
		}
		b.current = bare
		for _, p := range q.Where {
			cp := CompilePredicate(p)
			if _, err := cp.Eval(b); err == nil || IsVacuous(err) {
				t.Fatalf("%s against attribute-less events: err = %v", p, err)
			}
			if allocs := testing.AllocsPerRun(100, func() { cp.Eval(b) }); allocs != 0 {
				t.Errorf("%s: %.0f allocations per evaluation on the missing-attribute path", p, allocs)
			}
		}
	}
}
