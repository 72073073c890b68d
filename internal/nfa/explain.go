package nfa

import (
	"fmt"
	"strings"
)

// Explain renders the compiled automaton as a human-readable plan: one
// block per state with its event type, Kleene bounds, the predicates
// evaluated at each moment (bind / incremental / completion), and the
// negation guards active while waiting for the state. The predicate a
// transition is indexed on (JoinKey) carries a [key] mark; a transition
// without one is listed as unkeyed.
func (m *Machine) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", m.Query)
	w := m.Query.Window
	if w.Count > 0 {
		fmt.Fprintf(&b, "window: %d events\n", w.Count)
	} else {
		fmt.Fprintf(&b, "window: %s\n", w.Duration)
	}
	for s := range m.States {
		st := &m.States[s]
		fmt.Fprintf(&b, "state %d: %s %s", s, st.Comp.Type, st.Comp.Var)
		if st.Comp.Kleene {
			if st.Comp.MaxReps > 0 {
				fmt.Fprintf(&b, " (kleene {%d,%d})", st.Comp.MinReps, st.Comp.MaxReps)
			} else {
				fmt.Fprintf(&b, " (kleene {%d,})", st.Comp.MinReps)
			}
		}
		if m.Final(s) {
			b.WriteString(" [final]")
		}
		b.WriteByte('\n')
		for _, g := range st.Guards {
			fmt.Fprintf(&b, "  guard: NOT %s %s", g.Comp.Type, g.Comp.Var)
			if len(g.Preds) > 0 {
				b.WriteString(" when ")
				for i, p := range g.Preds {
					if i > 0 {
						b.WriteString(" AND ")
					}
					b.WriteString(p.String())
					if i == 0 && g.Key != nil {
						b.WriteString(" [key]")
					}
				}
			}
			if g.Key == nil {
				b.WriteString(" (unkeyed)")
			}
			b.WriteByte('\n')
		}
		for i, p := range st.Incremental {
			fmt.Fprintf(&b, "  on each repetition: %s%s\n", p, keyMark(i == 0 && st.TakeKey != nil))
		}
		for i, p := range st.Bind {
			fmt.Fprintf(&b, "  on bind: %s%s\n", p, keyMark(i == 0 && st.EnterKey != nil && !st.Comp.Kleene))
		}
		if st.Comp.Kleene && st.TakeKey == nil {
			b.WriteString("  take: unkeyed\n")
		}
		// Binding state 0 starts a run; no stored match reacts to it.
		if s > 0 && st.EnterKey == nil {
			b.WriteString("  enter: unkeyed\n")
		}
	}
	for _, p := range m.Completion {
		fmt.Fprintf(&b, "on completion: %s\n", p)
	}
	return b.String()
}

func keyMark(keyed bool) string {
	if keyed {
		return " [key]"
	}
	return ""
}
