package metrics

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

// WriteProm renders every `prom`-tagged field reachable from the struct
// root, through nested structs and slices of structs, in the Prometheus
// text exposition format (version 0.0.4). Each series is declared once,
// on the field that holds its value:
//
//	prom:"NAME,TYPE,HELP"  declares family NAME (counter, gauge or summary)
//	prom:"NAME"            another sample of a family declared elsewhere;
//	                       NAME_count is a sample of summary NAME
//	prom:"KEY,label"       labels every sample under the struct holding
//	                       the field, and under the struct holding that
//	                       one as a plain (non-slice) field
//
// NAME may carry constant labels: NAME{quantile=0.5}. Counters and a
// summary's _count print as integers, other samples as %g of a float64
// (a bool as 1 or 0). A time.Duration prints in seconds, and so does an
// integer (nanoseconds) in a family whose name holds "_seconds". The
// common label pairs lead every label set. A family prints under one
// header, labeled samples first; an empty slice still declares its
// families, so the headers do not depend on the data.
func WriteProm(w io.Writer, root any, common ...string) {
	p := promWalk{fams: map[string]*promFamily{}}
	v := reflect.ValueOf(root)
	p.walk(v, v.Type(), promLabels(v, common))
	for _, name := range p.order {
		f := p.fams[name]
		if f.typ == "" {
			panic("metrics: series " + name + " is never declared")
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.typ)
		sort.SliceStable(f.samples, func(i, j int) bool {
			return len(f.samples[i].labels) > len(common) && len(f.samples[j].labels) <= len(common)
		})
		for _, s := range f.samples {
			set := ""
			for i := 0; i+1 < len(s.labels); i += 2 {
				set += "," + s.labels[i] + `="` + labelEscaper.Replace(strings.ToValidUTF8(s.labels[i+1], "\uFFFD")) + `"`
			}
			if set != "" {
				set = "{" + set[1:] + "}"
			}
			fmt.Fprintf(w, "%s%s %s\n", s.name, set, promValue(f.typ, s.name, s.v))
		}
	}
}

// labelEscaper applies the only three escapes text format 0.0.4 defines
// for label values; Go's %q would also escape control bytes and invalid
// UTF-8 in forms a Prometheus parser rejects or misreads.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

type promFamily struct {
	typ, help string
	samples   []promSample
}

type promSample struct {
	name   string
	labels []string // key, value pairs, the common ones first
	v      reflect.Value
}

type promWalk struct {
	fams  map[string]*promFamily
	order []string // family names as the walk first meets them
}

// walk visits the fields of struct type t. v is the struct's value, or
// the zero Value below an empty slice: families are declared, no sample
// is taken.
func (p *promWalk) walk(v reflect.Value, t reflect.Type, labels []string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		var fv reflect.Value
		if v.IsValid() {
			fv = v.Field(i)
		}
		switch tag := f.Tag.Get("prom"); {
		case !f.IsExported() || strings.HasSuffix(tag, ",label"):
		case tag != "":
			p.add(tag, fv, labels)
		case f.Type.Kind() == reflect.Struct:
			p.walk(fv, f.Type, labels)
		case f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct:
			if !fv.IsValid() || fv.Len() == 0 {
				p.walk(reflect.Value{}, f.Type.Elem(), labels)
			}
			for j := 0; fv.IsValid() && j < fv.Len(); j++ {
				p.walk(fv.Index(j), f.Type.Elem(), promLabels(fv.Index(j), labels))
			}
		}
	}
}

func (p *promWalk) add(tag string, v reflect.Value, labels []string) {
	parts := strings.SplitN(tag, ",", 3)
	name, consts, _ := strings.Cut(parts[0], "{")
	fam := name
	if len(parts) < 3 {
		fam = strings.TrimSuffix(name, "_count")
	}
	f := p.fams[fam]
	if f == nil {
		f = &promFamily{}
		p.fams[fam] = f
		p.order = append(p.order, fam)
	}
	if len(parts) == 3 {
		f.typ, f.help = parts[1], parts[2]
	}
	if !v.IsValid() {
		return
	}
	for _, kv := range strings.Split(strings.TrimSuffix(consts, "}"), ",") {
		if k, val, ok := strings.Cut(kv, "="); ok {
			labels = append(labels[:len(labels):len(labels)], k, val)
		}
	}
	f.samples = append(f.samples, promSample{name, labels, v})
}

// promLabels appends the label fields of struct v, and of the structs it
// holds as plain fields, to labels.
func promLabels(v reflect.Value, labels []string) []string {
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		tag := f.Tag.Get("prom")
		if key, ok := strings.CutSuffix(tag, ",label"); ok {
			labels = append(labels[:len(labels):len(labels)], key, fmt.Sprint(v.Field(i).Interface()))
		} else if tag == "" && f.IsExported() && f.Type.Kind() == reflect.Struct {
			labels = promLabels(v.Field(i), labels)
		}
	}
	return labels
}

func promValue(typ, name string, v reflect.Value) string {
	var x float64
	switch {
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			x = 1
		}
	case typ == "counter" || strings.HasSuffix(name, "_count"):
		return fmt.Sprint(v.Interface())
	case v.Type() == reflect.TypeOf(time.Duration(0)):
		x = time.Duration(v.Int()).Seconds()
	case v.CanInt() && strings.Contains(name, "_seconds"):
		x = float64(v.Int()) / 1e9
	default:
		x = v.Convert(reflect.TypeOf(x)).Float()
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}
