package shed

import (
	"sync"
	"testing"
)

// A ledger's adds land in every ledger up its chain, so the root keeps
// what a discarded child counted; zero adds touch nothing.
func TestLedgerChainsToItsParent(t *testing.T) {
	var root Ledger
	a, b := NewLedger(&root), NewLedger(&root)
	a.Add(Delivered, 3)
	a.Add(Rejected, 0)
	b.Add(Delivered, 2)
	b.Add(FloorSkipped, 5)
	root.Add(Unrouted, 1)

	if c := a.Counts(); c != (Counts{Delivered: 3}) {
		t.Errorf("a = %v", c)
	}
	if c := b.Counts(); c != (Counts{Delivered: 2, FloorSkipped: 5}) {
		t.Errorf("b = %v", c)
	}
	if c := root.Counts(); c != (Counts{Delivered: 5, FloorSkipped: 5, Unrouted: 1}) {
		t.Errorf("root = %v", c)
	}
}

func TestLedgerConcurrentAdds(t *testing.T) {
	var root Ledger
	const workers, each = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(l *Ledger) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Add(Disposition(i%int(Unrouted+1)), 1)
			}
		}(NewLedger(&root))
	}
	wg.Wait()
	var sum uint64
	for _, n := range root.Counts() {
		sum += n
	}
	if sum != workers*each {
		t.Errorf("root counted %d adds, want %d", sum, workers*each)
	}
}
