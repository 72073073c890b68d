package main

import (
	"bytes"
	"io"
	"testing"

	"cepshed/internal/runtime"
)

// cepgen's output is the server's wire format: a short stream of every
// dataset decodes with the runtime's NDJSON decoder back to the same
// events, attribute kinds included (ds2's whole-valued floats stay
// floats).
func TestOutputDecodesToStream(t *testing.T) {
	for _, name := range []string{"ds1", "ds2", "citibike", "gcluster"} {
		t.Run(name, func(t *testing.T) {
			stream, err := generate(name, 200, 3)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := write(&buf, stream); err != nil {
				t.Fatal(err)
			}
			d := runtime.NewLineDecoder(&buf, 0)
			for i, want := range stream {
				got, hasTime, err := d.Next()
				if err != nil {
					t.Fatalf("line %d: %v", i+1, err)
				}
				if !hasTime || got.Type != want.Type || got.Time != want.Time || len(got.Attrs) != len(want.Attrs) {
					t.Fatalf("line %d decodes to %v, want %v", i+1, got, want)
				}
				for k, v := range want.Attrs {
					if got.Attrs[k] != v {
						t.Fatalf("line %d: attribute %s = %#v, want %#v", i+1, k, got.Attrs[k], v)
					}
				}
			}
			if _, _, err := d.Next(); err != io.EOF {
				t.Fatalf("after %d events: %v, want EOF", len(stream), err)
			}
		})
	}
}

func TestUnknownDataset(t *testing.T) {
	if _, err := generate("nope", 10, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
