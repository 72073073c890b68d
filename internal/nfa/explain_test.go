package nfa

import (
	"strings"
	"testing"

	"cepshed/internal/query"
)

func TestExplainQ1(t *testing.T) {
	out := MustCompile(query.Q1("8ms")).Explain()
	for _, frag := range []string{
		"window: 8ms",
		"state 0: A a",
		"state 1: B b",
		"state 2: C c [final]",
		"on bind: a.ID = b.ID [key]\n",
		"on bind: a.ID = c.ID [key]\n",
		"on bind: (a.V+b.V) = c.V\n",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, out)
		}
	}
}

func TestExplainKleeneAndGuards(t *testing.T) {
	out := MustCompile(query.HotPaths("1h", 4, 8)).Explain()
	if !strings.Contains(out, "kleene {4,8}") {
		t.Errorf("Kleene bounds missing:\n%s", out)
	}
	if !strings.Contains(out, "on each repetition:") {
		t.Errorf("incremental predicates missing:\n%s", out)
	}
	out = MustCompile(query.Q4("8ms")).Explain()
	if !strings.Contains(out, "guard: NOT B b when a.ID = b.ID [key]\n") {
		t.Errorf("guard missing:\n%s", out)
	}
}

func TestExplainMarksKeys(t *testing.T) {
	out := MustCompile(query.HotPaths("1h", 2, 5)).Explain()
	for _, frag := range []string{
		"on each repetition: a[i+1].bike = a[i].bike [key]\n",
		"on each repetition: a[i+1].start = a[i].end\n",
		"on bind: a[last].bike = b.bike [key]\n",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "unkeyed") {
		t.Errorf("HotPaths is keyed throughout:\n%s", out)
	}
	// Q2's final state has no leading equi-join.
	out = MustCompile(query.Q2("8ms", 1, 3)).Explain()
	if !strings.Contains(out, "on bind: (a.V+c.V) = d.V\n  enter: unkeyed\n") {
		t.Errorf("unkeyed final state not reported:\n%s", out)
	}
	out = MustCompile(query.MustParse(`PATTERN SEQ(A a, NOT B n, A+ b[]) WHERE b[i].V > a.V WITHIN 1ms`)).Explain()
	for _, frag := range []string{"guard: NOT B n (unkeyed)\n", "take: unkeyed\n", "enter: unkeyed\n"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, out)
		}
	}
}

func TestExplainCompletionAndCountWindow(t *testing.T) {
	q := query.MustParse(`PATTERN SEQ(A a, A+ b[], B c) WHERE AVG(b[].V) > a.V WITHIN 500 EVENTS`)
	out := MustCompile(q).Explain()
	if !strings.Contains(out, "on completion: AVG(b[].V) > a.V") {
		t.Errorf("completion predicate missing:\n%s", out)
	}
	if !strings.Contains(out, "window: 500 events") {
		t.Errorf("count window missing:\n%s", out)
	}
	if !strings.Contains(out, "kleene {1,}") {
		t.Errorf("open kleene missing:\n%s", out)
	}
}
