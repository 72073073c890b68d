// Command cepgen emits a generated dataset on stdout in the NDJSON wire
// format cepserved reads (runtime.EncodeEvent, one event per line), so
// its output feeds a server's -tcp edge or POST /ingest directly.
//
//	cepgen -dataset ds1 -events 1000 > ds1.ndjson
//	cepgen -dataset citibike -events 5000 -seed 7 | nc localhost 9090
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"cepshed/internal/citibike"
	"cepshed/internal/event"
	"cepshed/internal/gcluster"
	"cepshed/internal/gen"
	"cepshed/internal/runtime"
)

func main() {
	var (
		dataset = flag.String("dataset", "ds1", "dataset: ds1, ds2, citibike, gcluster")
		events  = flag.Int("events", 10000, "stream length (trips/tasks for case studies)")
		seed    = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	stream, err := generate(*dataset, *events, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cepgen: %v\n", err)
		os.Exit(2)
	}
	if err := write(os.Stdout, stream); err != nil {
		fmt.Fprintf(os.Stderr, "cepgen: %v\n", err)
		os.Exit(1)
	}
}

// generate builds the named dataset's stream.
func generate(dataset string, events int, seed int64) (event.Stream, error) {
	switch dataset {
	case "ds1":
		return gen.DS1(gen.DS1Config{Events: events, Seed: seed}), nil
	case "ds2":
		return gen.DS2(gen.DS2Config{Events: events, Seed: seed}), nil
	case "citibike":
		return citibike.Generate(citibike.Config{Trips: events, Seed: seed}), nil
	case "gcluster":
		return gcluster.Generate(gcluster.Config{Tasks: events, Seed: seed}), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", dataset)
}

// write renders stream as NDJSON, one event per line.
func write(w io.Writer, stream event.Stream) error {
	bw := bufio.NewWriter(w)
	for _, e := range stream {
		bw.Write(runtime.EncodeEvent(e))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
