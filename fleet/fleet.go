// Package fleet is the public API of the synthetic-datacenter simulation:
// a deterministic population of monitored devices with known ground-truth
// Nyquist rates, the monitoring pipeline (store, cost model, the §4
// deployment shapes) that measures them, and the drivers that regenerate
// every figure of the paper's evaluation.
//
// The simulation substitutes for the paper's proprietary production traces
// (see DESIGN.md); its per-metric Nyquist-rate distributions are
// calibrated to the ranges the paper reports, so censuses over the fleet
// reproduce the shape of Figs. 1, 4 and 5.
package fleet

import (
	"repro/internal/dcsim"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/tsdb"
)

// Re-exported simulation types.
type (
	// Device is one simulated metric/device pair.
	Device = dcsim.Device
	// Metric identifies a metric family (Fig. 5's fourteen).
	Metric = dcsim.Metric
	// Profile describes a metric family's statistical character.
	Profile = dcsim.Profile
	// Fleet is a deterministic device population.
	Fleet = dcsim.Fleet
	// FleetConfig parameterizes fleet generation.
	FleetConfig = dcsim.FleetConfig
	// Burst is a transient high-frequency event (link flap, incident).
	Burst = dcsim.Burst
	// Scenario is a built workload regime from the scenario catalog.
	Scenario = dcsim.Scenario
	// ScenarioSpec names and bounds one catalog regime.
	ScenarioSpec = dcsim.ScenarioSpec
	// HostileSpec carries a hostile regime's wire-transform knobs.
	HostileSpec = dcsim.HostileSpec
	// WireSample is one sample of generated ingest traffic.
	WireSample = dcsim.WireSample
	// WireConfig parameterizes a WireGen.
	WireConfig = dcsim.WireConfig
	// WireGen turns a scenario into deterministic wire traffic.
	WireGen = dcsim.WireGen
)

// NewWireGen builds the wire-traffic generator for a scenario.
var NewWireGen = dcsim.NewWireGen

// DefaultSamplesPerRound is the per-device wire round size hostile bars
// are calibrated against.
const DefaultSamplesPerRound = dcsim.DefaultSamplesPerRound

// BuildScenario builds a named workload regime deterministically.
var BuildScenario = dcsim.BuildScenario

// Scenarios returns the scenario catalog specs in catalog order.
var Scenarios = dcsim.Scenarios

// The fourteen metric families of the paper's Fig. 5.
const (
	OutboundDiscards = dcsim.OutboundDiscards
	UnicastDrops     = dcsim.UnicastDrops
	MulticastDrops   = dcsim.MulticastDrops
	MulticastBytes   = dcsim.MulticastBytes
	UnicastBytes     = dcsim.UnicastBytes
	InboundDiscards  = dcsim.InboundDiscards
	MemoryUsage      = dcsim.MemoryUsage
	PeakEgressBW     = dcsim.PeakEgressBW
	PeakIngressBW    = dcsim.PeakIngressBW
	LinkUtil         = dcsim.LinkUtil
	LossyPaths       = dcsim.LossyPaths
	CPUUtil5pct      = dcsim.CPUUtil5pct
	Temperature      = dcsim.Temperature
	FCSErrors        = dcsim.FCSErrors
)

// NumMetrics is the number of metric families.
const NumMetrics = dcsim.NumMetrics

// Day is the paper's per-datapoint trace length.
const Day = dcsim.Day

// NewFleet builds the synthetic datacenter population.
var NewFleet = dcsim.NewFleet

// NewDevice builds a single simulated device.
var NewDevice = dcsim.NewDevice

// AllMetrics returns every metric family in Fig. 5 order.
var AllMetrics = dcsim.AllMetrics

// ProfileFor returns a metric family's profile.
var ProfileFor = dcsim.ProfileFor

// Re-exported storage-engine types (the sharded multi-resolution tsdb
// behind Store; see internal/tsdb).
type (
	// Store is a concurrency-safe in-memory time-series database: the
	// sharded multi-resolution tsdb engine.
	Store = tsdb.DB
	// StoreConfig parameterizes a tiered store: shard count plus the
	// multi-resolution retention policy. There is no write-mode field:
	// every store is strict-append (see NewStore).
	StoreConfig = tsdb.Config
	// RetentionConfig is the per-series Nyquist-aware retention policy.
	RetentionConfig = tsdb.RetentionConfig
	// StoreStats is the engine-wide operator report.
	StoreStats = tsdb.Stats
	// SeriesStats is one series' retention state.
	SeriesStats = tsdb.SeriesStats
	// TierStats is one downsampled tier's state.
	TierStats = tsdb.TierStats
	// QueryResult is a tier-stitched range-query answer.
	QueryResult = tsdb.QueryResult
	// TierSlice records one tier's contribution to a query.
	TierSlice = tsdb.TierSlice
	// AggPoint is a min/max/mean bucket summary surfaced by a query.
	AggPoint = tsdb.AggPoint
)

// NewTieredStore returns a store with explicit sharding and retention.
func NewTieredStore(cfg StoreConfig) *Store { return tsdb.New(cfg) }

// Re-exported monitoring-pipeline types.
type (
	// CostModel prices samples through the pipeline.
	CostModel = monitor.CostModel
	// Cost is an accumulated resource bill.
	Cost = monitor.Cost
	// Comparison is a static-versus-adaptive head-to-head.
	Comparison = experiments.Comparison
	// CompareConfig parameterizes Compare.
	CompareConfig = experiments.CompareConfig
)

// Re-exported budget-allocation types (the title's cost/quality trade).
type (
	// Demand is one metric's sampling requirement.
	Demand = monitor.Demand
	// Allocation is the budgeter's decision for one metric.
	Allocation = monitor.Allocation
	// Plan is a complete budget allocation.
	Plan = monitor.Plan
	// FrontierPoint is one point of the cost/quality curve.
	FrontierPoint = monitor.FrontierPoint
)

// Archiver implements the paper's a-posteriori path: poll fast, estimate
// per window, store only Nyquist-rate samples (§4).
type Archiver = experiments.Archiver

// ArchiverConfig parameterizes an Archiver.
type ArchiverConfig = experiments.ArchiverConfig

// NewArchiver returns an archiver writing to a store.
var NewArchiver = experiments.NewArchiver

// RateFromCounter differences a cumulative counter trace into the rate
// signal spectral analysis operates on.
var RateFromCounter = dcsim.RateFromCounter

// Allocate distributes a global sample budget across metric demands.
var Allocate = monitor.Allocate

// Frontier sweeps the budget and returns the cost/quality curve whose
// knee is the sweet spot.
var Frontier = monitor.Frontier

// NewStore returns an empty time-series store whose raw ring holds
// capacity points per series (0 = unbounded). The store is
// strict-append: Append and AppendUniform return ErrOutOfOrder for a
// point older than the series' newest accepted sample and ErrTimeRange
// for a timestamp within a year of the int64-nanosecond limits, and a
// rejected point does not land.
func NewStore(capacity int) *Store {
	return tsdb.New(StoreConfig{Retention: RetentionConfig{RawCapacity: capacity}})
}

// ErrOutOfOrder and ErrTimeRange are the store's append rejections.
var (
	ErrOutOfOrder = tsdb.ErrOutOfOrder
	ErrTimeRange  = tsdb.ErrTimeRange
)

// DefaultCostModel returns the standard sample pricing.
var DefaultCostModel = monitor.DefaultCostModel

// Compare bills a fixed poll rate against the adaptive loop and scores
// the loop's reconstruction, over the whole epochs the loop ran.
var Compare = experiments.Compare

// Re-exported experiment drivers (one per paper figure; each result has a
// Render method producing the text form recorded in EXPERIMENTS.md).
type (
	// ExperimentConfig parameterizes the fleet-census experiments.
	ExperimentConfig = experiments.FleetConfig
	// Fig1Result is the over-sampling census (Fig. 1).
	Fig1Result = experiments.Fig1Result
	// Fig2Result is the aliasing-geometry demonstration (Fig. 2).
	Fig2Result = experiments.Fig2Result
	// Fig3Result is the two-tone aliasing demonstration (Fig. 3).
	Fig3Result = experiments.Fig3Result
	// Fig4Result is the reduction-ratio CDFs (Fig. 4).
	Fig4Result = experiments.Fig4Result
	// Fig5Result is the per-metric Nyquist box plot (Fig. 5).
	Fig5Result = experiments.Fig5Result
	// Fig6Result is the temperature round trip (Fig. 6).
	Fig6Result = experiments.Fig6Result
	// Fig7Result is the moving-window rate scan (Fig. 7).
	Fig7Result = experiments.Fig7Result
)

// RunFig1 regenerates Figure 1.
var RunFig1 = experiments.RunFig1

// RunFig2 regenerates Figure 2's demonstration.
var RunFig2 = experiments.RunFig2

// RunFig3 regenerates Figure 3.
var RunFig3 = experiments.RunFig3

// RunFig4 regenerates Figure 4.
var RunFig4 = experiments.RunFig4

// RunFig5 regenerates Figure 5.
var RunFig5 = experiments.RunFig5

// RunFig6 regenerates Figure 6.
var RunFig6 = experiments.RunFig6

// RunFig7 regenerates Figure 7.
var RunFig7 = experiments.RunFig7

// RunDualRate regenerates the §4.1 detector sweep.
var RunDualRate = experiments.RunDualRate

// RunAdaptive regenerates the §4.2 static-versus-adaptive comparison.
var RunAdaptive = experiments.RunAdaptive

// RunCutoffAblation sweeps the energy cut-off (DESIGN.md choice 1).
var RunCutoffAblation = experiments.RunCutoffAblation

// RunBudgetFrontier traces the fleet-wide cost/quality frontier (the
// title experiment).
var RunBudgetFrontier = experiments.RunBudgetFrontier

// RunErgodicity measures fleet ergodicity and canary horizons (§6).
var RunErgodicity = experiments.RunErgodicity

// RunWindowAblation sweeps the analysis window length (resolution floor).
var RunWindowAblation = experiments.RunWindowAblation

// BudgetFrontierResult is the cost/quality frontier data.
type BudgetFrontierResult = experiments.BudgetFrontierResult

// RunMemoryAblation compares the §4.2 adaptive loop with and without
// requirement memory on recurring fast episodes.
var RunMemoryAblation = experiments.RunMemoryAblation

// RunEstimatorAblation scores estimator variants against ground truth.
var RunEstimatorAblation = experiments.RunEstimatorAblation

// RunTaperAblation decomposes the serving estimator's error by taper,
// energy cut-off and window length.
var RunTaperAblation = experiments.RunTaperAblation

// RunHeadroomAblation sweeps §4.2's headroom factor against a
// first-of-its-kind event.
var RunHeadroomAblation = experiments.RunHeadroomAblation

// Fig6Config parameterizes the Fig. 6 experiment.
type Fig6Config = experiments.Fig6Config

// Fig7Config parameterizes the Fig. 7 experiment.
type Fig7Config = experiments.Fig7Config
