// Package monitor is the serving estimator and the accounting around it:
// IngestEstimator, the estimate-on-ingest hook that closes the
// estimate→retain loop for pushed series, the cost model that makes the
// paper's cost/quality trade-off measurable (collection, transmission,
// storage and analysis all scale with sample volume, §1 and §3.1), and the
// budget allocator that trades the two.
package monitor

import "fmt"

// CostModel prices one collected sample as it moves through the pipeline.
// The defaults model a typical SNMP-style collector: a 16-byte sample on
// the wire (timestamp + value + ids), stored as-is, with one CPU unit of
// collection work and half a unit of analysis work per sample.
type CostModel struct {
	// WireBytesPerSample is the network cost of shipping one sample to
	// the collector.
	WireBytesPerSample float64
	// StoreBytesPerSample is the storage cost of retaining one sample.
	StoreBytesPerSample float64
	// CollectCPUPerSample is the device+collector CPU work per sample.
	CollectCPUPerSample float64
	// AnalyzeCPUPerSample is the downstream analysis work per sample.
	AnalyzeCPUPerSample float64
}

// DefaultCostModel returns the standard pricing used by the experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		WireBytesPerSample:  16,
		StoreBytesPerSample: 16,
		CollectCPUPerSample: 1,
		AnalyzeCPUPerSample: 0.5,
	}
}

// Cost is an accumulated resource bill.
type Cost struct {
	// Samples is the number of measurements taken.
	Samples int
	// WireBytes is the bytes moved from devices to the collector.
	WireBytes float64
	// StoreBytes is the bytes retained.
	StoreBytes float64
	// CPUUnits is collection plus analysis work.
	CPUUnits float64
}

// Add bills n samples under model m.
func (c *Cost) Add(m CostModel, n int) {
	c.Samples += n
	fn := float64(n)
	c.WireBytes += m.WireBytesPerSample * fn
	c.StoreBytes += m.StoreBytesPerSample * fn
	c.CPUUnits += (m.CollectCPUPerSample + m.AnalyzeCPUPerSample) * fn
}

// AddCost merges another bill into c.
func (c *Cost) AddCost(o Cost) {
	c.Samples += o.Samples
	c.WireBytes += o.WireBytes
	c.StoreBytes += o.StoreBytes
	c.CPUUnits += o.CPUUnits
}

// String renders the bill compactly.
func (c Cost) String() string {
	return fmt.Sprintf("samples=%d wire=%.0fB store=%.0fB cpu=%.1f", c.Samples, c.WireBytes, c.StoreBytes, c.CPUUnits)
}
