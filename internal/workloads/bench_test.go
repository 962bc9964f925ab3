package workloads

import "testing"

// BenchmarkBuildVIPSuite builds the eight paper-scale VIP circuits once
// per op; B/op and allocs/op are the builder's garbage per suite.
func BenchmarkBuildVIPSuite(b *testing.B) {
	suite := VIPSuite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range suite {
			w.Build()
		}
	}
}
