package report

import (
	"bytes"
	"strings"
	"testing"
)

// Python: statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := Quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Fatalf("got %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	q1, q2, q3 = Quartiles([]float64{30, 10, 20})
	if q1 != 10 || q2 != 20 || q3 != 30 {
		t.Fatalf("got %v %v %v, want 10 20 30", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	spec := &Spec{EndToEnd: []MetricSpec{
		{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "tput", Unit: "1/s", Better: "higher", Bound: 0.02},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	set := func(lat, tput []float64) []Record {
		var out []Record
		for i := range lat {
			out = append(out, Record{Workload: "w", Result: Result{Metrics: map[string]Value{
				"lat": {lat[i], "ms"}, "tput": {tput[i], "1/s"}}}})
		}
		return out
	}
	steady := set([]float64{10, 10.1, 9.9, 10, 10}, []float64{100, 100, 100, 100, 100})
	var buf bytes.Buffer
	if b, u := Compare(&buf, spec, steady, steady); b != 0 || u != 0 {
		t.Fatalf("a set against itself: %d breaches, %d unresolved\n%s", b, u, buf.String())
	}
	slower := set([]float64{12, 12.1, 11.9, 12, 12}, []float64{97, 97, 97, 97, 97})
	buf.Reset()
	if b, _ := Compare(&buf, spec, steady, slower); b != 2 {
		t.Fatalf("20%% more latency and 3%% less throughput: %d breaches, want 2\n%s", b, buf.String())
	}
	if b, _ := Compare(&buf, spec, slower, steady); b != 0 {
		t.Fatalf("an improvement counted as %d breaches", b)
	}
	noisy := set([]float64{8, 12, 9, 11, 10}, []float64{100, 100, 100, 100, 100})
	buf.Reset()
	if b, u := Compare(&buf, spec, steady, noisy); b != 0 || u != 1 || !strings.Contains(buf.String(), "unresolved") {
		t.Fatalf("a spread wider than the bound: %d breaches, %d unresolved\n%s", b, u, buf.String())
	}
}
