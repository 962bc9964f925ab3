package workloads_test

// Example-style documentation tests exercising the workload API the way
// downstream code does.

import (
	"fmt"

	"haac/internal/workloads"
)

func ExampleWorkload_Check() {
	w := workloads.Millionaire(8)
	c, err := w.Check(1)
	if err != nil {
		fmt.Println("check failed:", err)
		return
	}
	and, _, _ := c.CountOps()
	fmt.Printf("millionaires' circuit: %d AND gates, %d output\n", and, len(c.Outputs))
	// Output: millionaires' circuit: 8 AND gates, 1 output
}
