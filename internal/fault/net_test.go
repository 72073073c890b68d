package fault

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// Every NetChaos fault mode must be observable from both sides: the
// caller sees an injected error (or not), the server sees the request
// delivered (or not). Drop-after-send is the pair that matters — the
// server got it, the caller cannot tell.
func TestNetChaosFaultModes(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	nc := NewNetChaos(nil)
	client := &http.Client{Transport: nc}

	get := func() error {
		resp, err := client.Get(srv.URL)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return err
	}

	// Healthy baseline.
	if err := get(); err != nil {
		t.Fatalf("healthy link: %v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("hits = %d, want 1", hits.Load())
	}

	// Partition: error, never delivered.
	nc.Block(host)
	if err := get(); err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("blocked link returned %v, want ErrInjected", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("blocked request reached the server (hits=%d)", hits.Load())
	}
	nc.Unblock(host)
	if err := get(); err != nil {
		t.Fatalf("after unblock: %v", err)
	}

	// Transient errors: fail exactly n, then pass.
	nc.FailNext(host, 2)
	for i := 0; i < 2; i++ {
		if err := get(); !errors.Is(err, ErrInjected) {
			t.Fatalf("FailNext request %d: %v, want ErrInjected", i, err)
		}
	}
	if err := get(); err != nil {
		t.Fatalf("after FailNext budget: %v", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("errored requests reached the server (hits=%d, want 3)", hits.Load())
	}

	// Drop-after-send: delivered AND errored.
	before := hits.Load()
	nc.DropAfterSend(host, 1)
	if err := get(); !errors.Is(err, ErrInjected) {
		t.Fatalf("DropAfterSend: %v, want ErrInjected", err)
	}
	if hits.Load() != before+1 {
		t.Fatalf("drop-after-send must deliver: hits=%d, want %d", hits.Load(), before+1)
	}
	blocked, errored, dropped := nc.Counts()
	if blocked != 1 || errored != 2 || dropped != 1 {
		t.Fatalf("Counts() = %d/%d/%d, want 1/2/1", blocked, errored, dropped)
	}
}

// The flap schedule is driven by request count, so the same call
// sequence always sees the same up/down pattern.
func TestNetChaosFlapDeterministic(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	nc := NewNetChaos(nil)
	nc.Flap(host, 2, 3) // 2 pass, 3 blocked, repeat
	client := &http.Client{Transport: nc}

	var got []bool
	for i := 0; i < 10; i++ {
		resp, err := client.Get(srv.URL)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		got = append(got, err == nil)
	}
	want := []bool{true, true, false, false, false, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flap cycle diverged at request %d: got %v, want %v", i, got, want)
		}
	}
	nc.Flap(host, 0, 0) // clear
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("after clearing flap: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
