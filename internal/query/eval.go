package query

import (
	"fmt"
	"math"

	"cepshed/internal/event"
)

// Binding supplies the events bound by a (partial) match for predicate
// evaluation. Positions refer to Component.Pos.
type Binding interface {
	// Single returns the event bound at a non-Kleene position (nil if the
	// position is not bound yet).
	Single(pos int) *event.Event
	// Kleene returns the repetitions bound so far at a Kleene position.
	Kleene(pos int) []*event.Event
	// Current returns the candidate event being examined right now: the
	// repetition being taken for incremental predicates, or the candidate
	// of the negated type for negation predicates.
	Current() *event.Event
}

func compare(op CmpOp, l, r event.Value) bool {
	switch op {
	case CmpEq:
		return l.Equal(r)
	case CmpNe:
		return !l.Equal(r)
	case CmpLt:
		return l.Compare(r) < 0
	case CmpLe:
		return l.Compare(r) <= 0
	case CmpGt:
		return l.Compare(r) > 0
	case CmpGe:
		return l.Compare(r) >= 0
	default:
		return false
	}
}

func arith(op BinaryOp, l, r event.Value) (event.Value, error) {
	if !l.IsNumeric() || !r.IsNumeric() {
		return event.Value{}, fmt.Errorf("query: arithmetic on non-numeric values %s, %s", l, r)
	}
	// Integer arithmetic stays integral except for division and power.
	if l.Kind == event.KindInt && r.Kind == event.KindInt {
		switch op {
		case OpAdd:
			return event.Int(l.I + r.I), nil
		case OpSub:
			return event.Int(l.I - r.I), nil
		case OpMul:
			return event.Int(l.I * r.I), nil
		}
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	switch op {
	case OpAdd:
		return event.Float(lf + rf), nil
	case OpSub:
		return event.Float(lf - rf), nil
	case OpMul:
		return event.Float(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return event.Value{}, fmt.Errorf("query: division by zero")
		}
		return event.Float(lf / rf), nil
	case OpPow:
		return event.Float(math.Pow(lf, rf)), nil
	default:
		return event.Value{}, fmt.Errorf("query: unknown operator %s", op)
	}
}

// errNoPrev marks the vacuous first Kleene repetition: an incremental
// predicate pairing k[i+1] with k[i] is trivially satisfied when no
// previous repetition exists. The engine checks for it via IsVacuous.
var errNoPrev = fmt.Errorf("query: no previous Kleene repetition")

// IsVacuous reports whether an evaluation error means the predicate was
// not applicable (first Kleene repetition) rather than failed.
func IsVacuous(err error) bool { return err == errNoPrev }

// findAllRef returns the first k[] reference inside e, or nil.
func findAllRef(e Expr) *FieldRef {
	var found *FieldRef
	e.walk(func(x Expr) {
		if r, ok := x.(*FieldRef); ok && r.Index == IdxAll && found == nil {
			found = r
		}
	})
	return found
}
