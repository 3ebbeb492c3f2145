package exec

import (
	"testing"
	"time"
)

// BenchmarkScanKernel times the scan_share workload's query shape — a full
// lineitem scan with a column-vs-constant filter feeding a scalar COUNT/SUM —
// through Runner.Step in scheduler-sized steps of 500 U. Each op is one whole
// query: Build, then Step to completion. ns/U is the executor's cost per page
// of bytes processed, the figure the benchmark's exec.scan_ns_per_u reports.
func BenchmarkScanKernel(b *testing.B) {
	c := buildCatalog(b, 2000, 120000)
	p := planQuery(b, c, "SELECT COUNT(*), SUM(extendedprice) FROM lineitem WHERE quantity > 5")
	b.ReportAllocs()
	b.ResetTimer()
	var u float64
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		r := NewRunner(p)
		r.CollectRows = false
		for done := false; !done; {
			c, d, err := r.Step(500)
			if err != nil {
				b.Fatal(err)
			}
			u, done = u+c, d
		}
	}
	b.ReportMetric(float64(time.Since(t0).Nanoseconds())/u, "ns/U")
}
