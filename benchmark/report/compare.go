package report

import (
	"fmt"
	"io"
	"sort"
)

// Quartiles returns the first quartile, median and third quartile of vs by
// the exclusive method, the one Python's statistics.quantiles(vs, n=4)
// uses, so that spreads computed here and by the driver agree.
func Quartiles(vs []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), vs...)
	sort.Float64s(x)
	n := len(x)
	if n == 1 {
		return x[0], x[0], x[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// Spread is the distance between the first and third quartile as a share
// of the median.
func Spread(vs []float64) float64 {
	q1, q2, q3 := Quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// Compare prints, for every workload and end-to-end metric present in both
// run sets, each set's median and spread, how far b's median is worse than
// a's, and the bound. It returns how many pairs breach their bound and how
// many are unresolved because a spread is wider than the bound. Traced
// runs are ignored: end-to-end numbers come from untraced runs only.
func Compare(w io.Writer, spec *Spec, a, b []Record) (breaches, unresolved int) {
	values := func(recs []Record, workload, metric string) []float64 {
		var vs []float64
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	fmt.Fprintf(w, "%-16s %-15s %4s %12s %8s %12s %8s %8s %6s\n",
		"workload", "metric", "runs", "median a", "spread a", "median b", "spread b", "worse", "bound")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, ma, _ := Quartiles(va)
			_, mb, _ := Quartiles(vb)
			sa, sb := Spread(va), Spread(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			switch {
			case worse > m.Bound:
				verdict = "BREACH"
				breaches++
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(w, "%-16s %-15s %2d/%-2d %12.4f %7.2f%% %12.4f %7.2f%% %+7.2f%% %5.0f%% %s\n",
				wl.Name, m.Name, len(va), len(vb), ma, 100*sa, mb, 100*sb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return breaches, unresolved
}
