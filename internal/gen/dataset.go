package gen

import (
	"fmt"

	"cepshed/internal/citibike"
	"cepshed/internal/event"
	"cepshed/internal/gcluster"
	"cepshed/internal/query"
)

// Dataset returns the training and workload streams of a named dataset
// (ds1, ds2, citibike, gcluster) plus the paper query the commands run on
// it by default. The training stream is half as long and seeded apart
// from the workload.
func Dataset(name string, events int, seed int64) (train, work event.Stream, defQuery string, err error) {
	switch name {
	case "ds1":
		train = DS1(DS1Config{Events: events / 2, Seed: seed + 1000, InterArrival: 15 * event.Microsecond})
		work = DS1(DS1Config{Events: events, Seed: seed, InterArrival: 15 * event.Microsecond})
		defQuery = query.Q1("8ms").Raw
	case "ds2":
		train = DS2(DS2Config{Events: events / 2, Seed: seed + 1000, InterArrival: 15 * event.Microsecond})
		work = DS2(DS2Config{Events: events, Seed: seed, InterArrival: 15 * event.Microsecond})
		defQuery = query.Q3("8ms").Raw
	case "citibike":
		train = citibike.Generate(citibike.Config{Trips: events / 2, Seed: seed + 1000})
		work = citibike.Generate(citibike.Config{Trips: events, Seed: seed})
		defQuery = query.HotPaths("5 min", 2, 5).Raw
	case "gcluster":
		cfg := gcluster.Config{Tasks: events / 4, MeanGap: 120 * event.Millisecond, StepGap: 400 * event.Millisecond}
		cfg.Seed = seed + 1000
		train = gcluster.Generate(cfg)
		cfg.Seed = seed
		work = gcluster.Generate(cfg)
		defQuery = query.ClusterTasks("1 min").Raw
	default:
		return nil, nil, "", fmt.Errorf("unknown dataset %q", name)
	}
	return train, work, defQuery, nil
}
