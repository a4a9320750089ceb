package trace

import (
	"fmt"
	"math"
)

// ScaleLoad multiplies the offered load by `factor` by dividing every
// inter-arrival gap by it (factor > 1 compresses arrivals = more load). Job
// shapes are unchanged. It panics if factor <= 0.
func ScaleLoad(t *Trace, factor float64) *Trace {
	if factor <= 0 {
		panic(fmt.Sprintf("trace: ScaleLoad factor %v", factor))
	}
	c := t.Clone()
	if len(c.Jobs) == 0 {
		return c
	}
	var acc float64
	var prevOrig int64 = c.Jobs[0].Submit
	base := c.Jobs[0].Submit
	c.Jobs[0].Submit = base
	for i := 1; i < len(c.Jobs); i++ {
		gap := float64(c.Jobs[i].Submit - prevOrig)
		prevOrig = c.Jobs[i].Submit
		acc += gap / factor
		c.Jobs[i].Submit = base + int64(math.Round(acc))
	}
	return c
}
