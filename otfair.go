// Package otfair is a Go implementation of "Optimal Transport for
// Fairness: Archival Data Repair using Small Research Data Sets"
// (Langbridge, Quinn, Shorten; ICDE 2024, arXiv:2403.13864).
//
// The library repairs unfairness in data, defined as conditional dependence
// of the features X on a protected attribute S given an unprotected
// attribute U. An optimal-transport repair plan is designed once on a
// small, fully labelled research data set (Algorithm 1 of the paper) and
// then applied to unbounded torrents of archival data (Algorithm 2),
// off-sample and online:
//
//	research, _ := otfair.ReadCSV(f)                   // small s|u-labelled set
//	plan, _ := otfair.Design(research, otfair.DesignOptions{NQ: 50})
//	rep, _ := otfair.NewRepairer(plan, otfair.NewRNG(1), otfair.RepairOptions{})
//	repaired, _ := rep.RepairTable(archive)            // any amount of data
//
// Fairness is measured by the E metric (Definition 2.4 of the paper): the
// Pr[u]-weighted symmetrized Kullback–Leibler divergence between the
// s-conditional feature densities; otfair.E and otfair.ComputeMetric
// evaluate it. The geometric on-sample baseline of Del Barrio et al.
// (ICML 2019) is exposed as otfair.GeometricRepair for comparison.
//
// Everything — exact and regularized OT solvers, Wasserstein barycenters,
// kernel density estimation, divergence estimators, QDA label estimation
// — is implemented on the Go standard library; see the internal
// packages and DESIGN.md for the full inventory, and cmd/repro for the
// reproduction of every table and figure in the paper.
package otfair

import (
	"io"

	"otfair/internal/blind"
	"otfair/internal/contu"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/divergence"
	"otfair/internal/fairmetrics"
	"otfair/internal/joint"
	"otfair/internal/kde"
	"otfair/internal/monitor"
	"otfair/internal/planstore"
	"otfair/internal/repairsvc"
	"otfair/internal/rng"
)

// Core vocabulary, re-exported from the implementation packages.
type (
	// Record is one observation z = {x, s, u}: a feature vector, a binary
	// protected attribute (or SUnknown), and a binary unprotected attribute.
	Record = dataset.Record
	// Table is an in-memory collection of records.
	Table = dataset.Table
	// Group identifies a (u, s) sub-population.
	Group = dataset.Group
	// Stream delivers records one at a time (archival torrents).
	Stream = dataset.Stream
	// Plan is a designed repair plan (the output of Algorithm 1).
	Plan = core.Plan
	// Repairer applies a plan to off-sample data (Algorithm 2).
	Repairer = core.Repairer
	// DesignOptions configures Algorithm 1.
	DesignOptions = core.Options
	// RepairOptions configures Algorithm 2.
	RepairOptions = core.RepairOptions
	// Diagnostics counts clamped points and empty-row fallbacks seen while
	// repairing.
	Diagnostics = core.Diagnostics
	// MetricConfig configures the E estimator.
	MetricConfig = fairmetrics.Config
	// MetricResult is the full stratified E metric output.
	MetricResult = fairmetrics.Result
	// RNG is the deterministic random source all stochastic steps consume.
	RNG = rng.RNG
)

// SUnknown marks an unobserved protected attribute.
const SUnknown = dataset.SUnknown

// Solver choices for DesignOptions.Solver.
const (
	// SolverMonotone is the exact O(nQ) 1-D solver (default).
	SolverMonotone = core.SolverMonotone
	// SolverSimplex is the exact network-simplex solver.
	SolverSimplex = core.SolverSimplex
	// SolverSinkhorn is entropically regularized OT.
	SolverSinkhorn = core.SolverSinkhorn
)

// Target-family choices for DesignOptions.Target (Section VI's
// non-Wasserstein designs).
const (
	// TargetBarycenter is the paper's W2-geodesic target (default).
	TargetBarycenter = core.TargetBarycenter
	// TargetMixture is the vertical average (1−t)·p0 + t·p1.
	TargetMixture = core.TargetMixture
	// TargetGaussian is the moment-matched parametric target.
	TargetGaussian = core.TargetGaussian
)

// Barycenter choices for DesignOptions.Barycenter.
const (
	// BarycenterQuantile is the exact 1-D quantile barycenter (default).
	BarycenterQuantile = core.BarycenterQuantile
	// BarycenterBregman is the entropically regularized barycenter.
	BarycenterBregman = core.BarycenterBregman
)

// Kernel choices for DesignOptions.Kernel.
const (
	// KernelGaussian is the paper's kernel (default).
	KernelGaussian = kde.Gaussian
	// KernelEpanechnikov is the MSE-optimal compact kernel.
	KernelEpanechnikov = kde.Epanechnikov
)

// Metric estimator choices for MetricConfig.Estimator.
const (
	// MetricKDE is the statistically consistent grid estimator (default).
	MetricKDE = fairmetrics.EstimatorKDE
	// MetricHistogram is the floored binned-frequency estimator.
	MetricHistogram = fairmetrics.EstimatorHistogram
	// MetricPlugin is the Monte-Carlo plug-in estimator used by the
	// paper-reproduction harness.
	MetricPlugin = fairmetrics.EstimatorPlugin
)

// NewRNG returns a deterministic random source for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NewTable creates an empty table of the given feature dimension; names is
// optional.
func NewTable(dim int, names []string) (*Table, error) {
	return dataset.NewTable(dim, names)
}

// ReadCSV parses a table from the "s,u,<features...>" CSV layout; empty or
// "?" s-fields mark unknown protected attributes.
func ReadCSV(r io.Reader) (*Table, error) { return dataset.ReadCSV(r) }

// NewCSVStream opens an incremental record stream over the same CSV layout.
func NewCSVStream(r io.Reader) (Stream, error) { return dataset.NewCSVStream(r) }

// NewSliceStream adapts a table to the Stream interface.
func NewSliceStream(t *Table) Stream { return dataset.NewSliceStream(t) }

// Design runs Algorithm 1: it learns the per-(u, feature) interpolated
// supports, KDE marginals, barycentric targets and OT plans from the
// research table, which must contain all four labelled (u,s) groups.
func Design(research *Table, opts DesignOptions) (*Plan, error) {
	return core.Design(research, opts)
}

// NewRepairer binds a designed plan to a randomness source for Algorithm 2.
func NewRepairer(plan *Plan, r *RNG, opts RepairOptions) (*Repairer, error) {
	return core.NewRepairer(plan, r, opts)
}

// ReadPlan deserializes a plan previously saved with Plan.WriteJSON.
func ReadPlan(r io.Reader) (*Plan, error) { return core.ReadPlan(r) }

// GeometricRepair applies the on-sample baseline of Del Barrio et al.
// (the paper's [10]) per (u, feature) with interpolation parameter t
// (0.5 = the fair barycentre).
func GeometricRepair(research *Table, t float64) (*Table, error) {
	return core.GeometricRepair(research, t)
}

// QuantilePlan is the deterministic rank-based repair of Feldman et al.
// (the paper's [4]) extended to off-sample data.
type QuantilePlan = core.QuantilePlan

// DesignQuantile estimates a quantile repair of strength amount ∈ (0, 1]
// from the research data.
func DesignQuantile(research *Table, amount float64) (*QuantilePlan, error) {
	return core.DesignQuantile(research, amount)
}

// ComputeMetric evaluates the full stratified E metric (Definition 2.4,
// Eq. 3) on the labelled records of a table.
func ComputeMetric(t *Table, cfg MetricConfig) (*MetricResult, error) {
	return fairmetrics.Compute(t, cfg)
}

// E returns the feature-aggregated fairness metric; lower is fairer, 0 is
// conditional independence.
func E(t *Table, cfg MetricConfig) (float64, error) {
	return fairmetrics.E(t, cfg)
}

// EPerFeature returns the per-feature metric vector (the paper's E_k).
func EPerFeature(t *Table, cfg MetricConfig) ([]float64, error) {
	return fairmetrics.EPerFeature(t, cfg)
}

// MMDOptions configures the kernel-MMD fairness cross-check.
type MMDOptions = divergence.MMDOptions

// MMDPerFeature is a density-free alternative dependence measure: the
// Pr[u]-weighted unbiased MMD² between the s|u-conditional samples per
// feature (the Section II-A kernel-decoupling family).
func MMDPerFeature(t *Table, opts MMDOptions) ([]float64, error) {
	return fairmetrics.MMDPerFeature(t, opts)
}

// Damage is the mean squared displacement between an original table and
// its repaired counterpart — the information-loss side of the fairness
// trade-off.
func Damage(before, after *Table) (float64, error) {
	return fairmetrics.Damage(before, after)
}

// AutoTuneOptions configures AutoTuneNQ.
type AutoTuneOptions = core.AutoTuneOptions

// AutoTuneResult reports the selected resolution and convergence trace.
type AutoTuneResult = core.AutoTuneResult

// AutoTuneNQ walks an ascending nQ ladder and stops when the repaired-data
// E metric converges — the paper's Section V-A2b rule for choosing the
// minimal sufficient support resolution.
func AutoTuneNQ(research *Table, r *RNG, opts AutoTuneOptions) (*AutoTuneResult, error) {
	return core.AutoTuneNQ(research, r, opts)
}

// Blind repair: deployment on archives whose s labels are unobserved — the
// priority future work of the paper's Section VI.
type (
	// BlindRepairer repairs records with unknown s by posterior imputation
	// or group-blind pooled transport.
	BlindRepairer = blind.Repairer
	// BlindOptions selects the label-free strategy and passes the
	// Algorithm-2 repair options through.
	BlindOptions = blind.Options
	// BlindMethod enumerates the label-free strategies.
	BlindMethod = blind.Method
	// QDA is the supervised Gaussian posterior Pr[s|x,u] fitted on the
	// research set, usable as a streaming soft-labeller.
	QDA = blind.QDA
	// QDABatch evaluates the fitted posterior for whole chunks of records
	// at once (QDA.Batch) — bit-identical to per-record evaluation, but on
	// vectorized kernels; the blind serving engines run on it.
	QDABatch = blind.BatchPosterior
)

// Blind method choices for BlindOptions.Method.
const (
	// BlindHard imputes the MAP label, then runs the labelled repair.
	BlindHard = blind.MethodHard
	// BlindDraw draws one label per record from the posterior.
	BlindDraw = blind.MethodDraw
	// BlindMix draws an independent label per feature from the posterior.
	BlindMix = blind.MethodMix
	// BlindPooled transports the pooled u-marginal with a single map,
	// using no label information at all.
	BlindPooled = blind.MethodPooled
)

// NewBlindRepairer builds a repairer for s|u-unlabelled archives from the
// labelled plan and the research table it was designed on. It fits what
// its method needs of a Calibration — the QDA posterior (hard, draw, mix;
// every (u, s) research group labelled) or the pooled marginals (pooled;
// no s label read) — and binds it the way WithCalibration does: with a
// calibration fitted on the same research table, a one-worker
// BatchRepairer repairs byte-identically at the same seed and method.
func NewBlindRepairer(plan *Plan, research *Table, r *RNG, opts BlindOptions) (*BlindRepairer, error) {
	return blind.New(plan, research, r, opts)
}

// NewQDA fits the class-conditional Gaussian posterior Pr[s|x,u] on a fully
// labelled research table.
func NewQDA(research *Table) (*QDA, error) { return blind.NewQDA(research) }

// Blind serving: the calibrated s-unlabelled half of the serving layer.
// A Calibration — the fitted QDA posterior plus the pooled marginals on
// the plan's grids — is a persisted artefact like the plan itself, and
// BatchRepairer.WithCalibration applies it at alias-table speed: both
// s-rows of every plan cell precomputed, each draw mixed by the record's
// posterior. With one worker its output is byte-identical to
// NewBlindRepairer at the same seed and method.
type (
	// Calibration is the serializable fitted blind model, content-addressed
	// next to its plan.
	Calibration = blind.Calibration
	// BlindStats counts blind deployment traffic (labels used, imputations,
	// posterior confidence, the ambiguity histogram).
	BlindStats = blind.Stats
	// CalibrationStore is the disk-backed calibration namespace of an
	// artefact store, keyed by content fingerprint.
	CalibrationStore = planstore.CalibrationStore
)

// NewCalibration fits a blind calibration on a labelled research table for
// a designed plan: the QDA posterior, the pooled Eq.-(10) marginals and
// the research-time confidence baseline.
func NewCalibration(plan *Plan, research *Table) (*Calibration, error) {
	return blind.NewCalibration(plan, research)
}

// ReadCalibration deserializes a calibration previously saved with
// Calibration.WriteJSON, re-validating every component.
func ReadCalibration(r io.Reader) (*Calibration, error) { return blind.ReadCalibration(r) }

// OpenCalibrationStore opens (creating if needed) the calibration namespace
// under an artefact store root — typically the same directory as the plan
// store, so both tiers share one deployment volume.
func OpenCalibrationStore(root string, opts PlanStoreOptions) (*CalibrationStore, error) {
	return planstore.OpenCalibrations(root, opts)
}

// Joint (multivariate) repair: the non-feature-stratified variant that
// preserves intra-feature correlation structure — the Section VI trade-off,
// measurable here instead of assumed. Exponential in d; see joint.Options.
type (
	// JointPlan is a designed multivariate repair plan on a product support.
	JointPlan = joint.Plan
	// JointOptions configures the joint design.
	JointOptions = joint.Options
	// JointRepairer applies a joint plan to off-sample records.
	JointRepairer = joint.Repairer
	// JointMetricConfig configures the multivariate E metric.
	JointMetricConfig = fairmetrics.JointConfig
)

// DesignJoint learns the joint repair: per u-population a product-grid
// support, multivariate-KDE joint marginals, an entropic W2 barycenter and
// two Sinkhorn plans.
func DesignJoint(research *Table, opts JointOptions) (*JointPlan, error) {
	return joint.Design(research, opts)
}

// NewJointRepairer binds a joint plan to a randomness source.
func NewJointRepairer(plan *JointPlan, r *RNG) (*JointRepairer, error) {
	return joint.NewRepairer(plan, r)
}

// EJoint is the multivariate fairness metric: the Pr[u]-weighted symmetrized
// KL between the full d-dimensional s|u-conditional densities. Dependence
// living purely in correlation structure — invisible to the per-feature E —
// shows up here.
func EJoint(t *Table, cfg JointMetricConfig) (float64, error) {
	return fairmetrics.EJoint(t, cfg)
}

// CorrelationGap measures s-dependence carried by the pairwise correlation
// structure: the weighted mean |ρ_{u,s=0} − ρ_{u,s=1}| over u and feature
// pairs. Zero is necessary for conditional independence.
func CorrelationGap(t *Table) (float64, error) {
	return fairmetrics.CorrelationGap(t)
}

// CorrelationDamage measures how much a repair distorted the dependence
// structure: the mean per-(u,s)-group absolute change in pairwise Pearson
// correlations.
func CorrelationDamage(before, after *Table) (float64, error) {
	return fairmetrics.CorrelationDamage(before, after)
}

// Continuous unprotected attribute u ∈ R (the Section VI generalization):
// the conditioning is discretized into quantile bins, one Algorithm-1 cell
// per (bin, feature), with optional stochastic blending across bin edges.
type (
	// ContinuousRecord is an observation with continuous u.
	ContinuousRecord = contu.Record
	// ContinuousPlan is a designed binned repair over continuous u.
	ContinuousPlan = contu.Plan
	// ContinuousOptions configures the binned design.
	ContinuousOptions = contu.Options
	// ContinuousRepairer applies a binned plan to off-sample records.
	ContinuousRepairer = contu.Repairer
)

// DesignContinuous learns a quantile-binned repair from research records
// with continuous u.
func DesignContinuous(research []ContinuousRecord, dim int, opts ContinuousOptions) (*ContinuousPlan, error) {
	return contu.Design(research, dim, opts)
}

// NewContinuousRepairer binds a binned continuous-u plan to a randomness
// source.
func NewContinuousRepairer(plan *ContinuousPlan, r *RNG, opts RepairOptions) (*ContinuousRepairer, error) {
	return contu.NewRepairer(plan, r, opts)
}

// EBinned evaluates the E metric for continuous-u records conditioned on
// the given bin edges.
func EBinned(records []ContinuousRecord, edges []float64, cfg MetricConfig) (float64, error) {
	return contu.EBinned(records, edges, cfg)
}

// RepairDispersion measures individual-fairness damage from mass splitting:
// the average spread of repaired values across near-identical inputs
// (Section VI's Monge discussion). Zero for a deterministic monotone repair.
func RepairDispersion(before, after *Table, bins int) (float64, error) {
	return fairmetrics.RepairDispersion(before, after, bins)
}

// Comonotonicity measures order preservation between original and repaired
// values per (u,s) group: 1 for a monotone (Monge) repair, ≈ 0.5 for
// independent redraws.
func Comonotonicity(before, after *Table) (float64, error) {
	return fairmetrics.Comonotonicity(before, after)
}

// Serving: the repair-as-a-service layer behind cmd/fairserved. A designed
// plan is persisted once in a content-addressed PlanStore and then applied
// to archival torrents by a BatchRepairer — alias draw tables precomputed
// per plan row, records sharded across workers on deterministic per-shard
// RNG streams. With one worker the batch output is byte-identical to the
// plain Repairer at the same seed, so embedded and served repair are
// interchangeable.
type (
	// PlanSampler is a plan's precomputed draw state (one alias table per
	// (u, s, feature, support row)), shareable across repairers and
	// goroutines.
	PlanSampler = core.PlanSampler
	// PlanStore is a disk-backed plan registry keyed by content
	// fingerprint, with an in-memory LRU.
	PlanStore = planstore.Store
	// PlanStoreOptions configures the store.
	PlanStoreOptions = planstore.Options
	// PlanStoreStats are the store's cumulative traffic counters.
	PlanStoreStats = planstore.Stats
	// BatchRepairer is the sharded batch/streaming engine of Algorithm 2,
	// labelled or — bound to a Calibration — s-unlabelled.
	BatchRepairer = repairsvc.Engine
	// BatchOptions configures a BatchRepairer.
	BatchOptions = repairsvc.Options
	// BatchTotals are an engine's cumulative serving counters.
	BatchTotals = repairsvc.Totals
	// RepairServer is the HTTP front end (plans, repair, metrics, health).
	RepairServer = repairsvc.Server
	// RepairServerOptions configures the HTTP front end.
	RepairServerOptions = repairsvc.ServerOptions
	// MonitorSummary is a point-in-time drift-monitor view.
	MonitorSummary = monitor.Summary
)

// NewPlanSampler precomputes a plan's alias draw tables for sharing across
// repairers (NewRepairerShared) and batch engines.
func NewPlanSampler(plan *Plan) (*PlanSampler, error) {
	return core.NewPlanSampler(plan)
}

// NewRepairerShared binds a precomputed sampler to a randomness source;
// byte-identical to NewRepairer for the same RNG.
func NewRepairerShared(sampler *PlanSampler, r *RNG, opts RepairOptions) (*Repairer, error) {
	return core.NewRepairerShared(sampler, r, opts)
}

// OpenPlanStore opens (creating if needed) a disk-backed plan store.
func OpenPlanStore(dir string, opts PlanStoreOptions) (*PlanStore, error) {
	return planstore.Open(dir, opts)
}

// NewBatchRepairer binds a plan to a batched, sharded repair engine.
func NewBatchRepairer(plan *Plan, opts BatchOptions) (*BatchRepairer, error) {
	return repairsvc.NewEngine(plan, opts)
}

// NewRepairServer builds the fairserved HTTP handler over a plan store.
func NewRepairServer(store *PlanStore, opts RepairServerOptions) (*RepairServer, error) {
	return repairsvc.NewServer(store, opts)
}

// Deployment monitoring: the stationarity guard for archival torrents
// (Section IV requirement 2) and the Section VI research-accrual stopping
// rule.
type (
	// Monitor watches an archival stream against a designed plan and
	// raises drift alarms per (u,s,feature) cell.
	Monitor = monitor.Monitor
	// MonitorOptions configures window, level and thresholds.
	MonitorOptions = monitor.Options
	// DriftAlarm reports one stale cell.
	DriftAlarm = monitor.Alarm
	// StoppingOptions configures the research-accrual stopping rule.
	StoppingOptions = monitor.StoppingOptions
	// StoppingResult reports when enough research data had been seen.
	StoppingResult = monitor.StoppingResult
)

// NewMonitor builds a drift monitor for the plan a deployment repairs with.
func NewMonitor(plan *Plan, opts MonitorOptions) (*Monitor, error) {
	return monitor.New(plan, opts)
}

// ResearchStoppingRule replays sequential research accrual over a labelled
// table and reports the size at which the estimated marginals stopped
// moving — the Section VI stopping rule.
func ResearchStoppingRule(research *Table, opts StoppingOptions) (*StoppingResult, error) {
	return monitor.ResearchStoppingRule(research, opts)
}
