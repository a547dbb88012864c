package qosalloc

import (
	"io"
	"math/rand"

	"qosalloc/internal/alloc"
	"qosalloc/internal/appapi"
	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/cbjson"
	"qosalloc/internal/device"
	"qosalloc/internal/experiments"
	"qosalloc/internal/fault"
	"qosalloc/internal/fixed"
	"qosalloc/internal/hwapi"
	"qosalloc/internal/hwsim"
	"qosalloc/internal/learn"
	"qosalloc/internal/mb32"
	"qosalloc/internal/memlist"
	"qosalloc/internal/obs"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtl"
	"qosalloc/internal/rtsys"
	"qosalloc/internal/serve"
	"qosalloc/internal/similarity"
	"qosalloc/internal/swret"
	"qosalloc/internal/synth"
	"qosalloc/internal/workload"
)

// --- Attribute vocabulary ----------------------------------------------

// Attribute model: IDs, payloads and design-time definitions with
// global bounds (the source of each attribute type's dmax in eq. 1).
type (
	// AttrID identifies an attribute type system-wide.
	AttrID = attr.ID
	// AttrValue is a 16-bit attribute payload.
	AttrValue = attr.Value
	// AttrKind distinguishes numeric, ordinal and flag attributes.
	AttrKind = attr.Kind
	// AttrDef declares an attribute type with its design-global bounds.
	AttrDef = attr.Def
	// AttrPair is one (ID, value) attribute instance.
	AttrPair = attr.Pair
	// Registry is the sealed design-time attribute dictionary.
	Registry = attr.Registry
)

// Attribute kinds.
const (
	Numeric = attr.Numeric
	Ordinal = attr.Ordinal
	Flag    = attr.Flag
)

// NewRegistry returns an empty attribute registry.
func NewRegistry() *Registry { return attr.NewRegistry() }

// --- Case base ----------------------------------------------------------

// Case-base model: the fig. 3/5 implementation tree.
type (
	// TypeID identifies a basic function type.
	TypeID = casebase.TypeID
	// ImplID identifies an implementation variant within its type.
	ImplID = casebase.ImplID
	// Target is an execution resource class (FPGA, DSP, GP processor).
	Target = casebase.Target
	// Footprint is what a variant consumes when instantiated.
	Footprint = casebase.Footprint
	// Implementation is one variant with its QoS attribute set.
	Implementation = casebase.Implementation
	// FunctionType is one type node with its variants.
	FunctionType = casebase.FunctionType
	// CaseBase is the validated, immutable implementation tree.
	CaseBase = casebase.CaseBase
	// CaseBaseBuilder accumulates and validates a case base.
	CaseBaseBuilder = casebase.Builder
	// Constraint is one requested QoS attribute with its weight.
	Constraint = casebase.Constraint
	// Request is a QoS-constrained function request.
	Request = casebase.Request
)

// Execution targets.
const (
	TargetFPGA = casebase.TargetFPGA
	TargetDSP  = casebase.TargetDSP
	TargetGPP  = casebase.TargetGPP
)

// NewCaseBaseBuilder returns a builder validating against reg.
func NewCaseBaseBuilder(reg *Registry) *CaseBaseBuilder { return casebase.NewBuilder(reg) }

// NewRequest builds a request for function type t, sorting constraints
// by attribute ID as the list layouts require.
func NewRequest(t TypeID, cs ...Constraint) Request { return casebase.NewRequest(t, cs...) }

// PaperCaseBase returns the paper's §3 FIR-equalizer example tree.
func PaperCaseBase() (*CaseBase, error) { return casebase.PaperCaseBase() }

// PaperRegistry returns the §3 attribute dictionary.
func PaperRegistry() *Registry { return casebase.PaperRegistry() }

// PaperRequest returns the fig. 3 request {bitwidth 16, stereo, 40 kS/s}.
func PaperRequest() Request { return casebase.PaperRequest() }

// --- Similarity & retrieval ---------------------------------------------

// Retrieval engines and similarity measures.
type (
	// LocalMeasure scores one attribute comparison into [0, 1].
	LocalMeasure = similarity.Local
	// Amalgamation combines weighted local similarities (eq. 2).
	Amalgamation = similarity.Amalgamation
	// Engine is the float64 reference retrieval engine. It is safe for
	// concurrent use; NewService adds batching and admission control.
	Engine = retrieval.Engine
	// Result is one scored implementation variant.
	Result = retrieval.Result
	// LocalScore is one attribute-level comparison (a Table 1 row).
	LocalScore = retrieval.LocalScore
	// FixedEngine is the bit-exact 16-bit datapath twin, scoring over
	// the §5 block-compacted memory layout. It is safe for concurrent
	// use.
	FixedEngine = retrieval.FixedEngine
	// FixedResult is a Q15-scored variant.
	FixedResult = retrieval.FixedResult
	// ErrNoMatch reports that nothing cleared the threshold.
	ErrNoMatch = retrieval.ErrNoMatch
	// Token holds a previous selection's answer for repeated calls.
	Token = retrieval.Token
	// TokenCache maps requests to bypass tokens in a fixed-capacity table.
	TokenCache = retrieval.TokenCache
	// Q15 is the 16-bit fixed-point similarity format.
	Q15 = fixed.Q15
)

// NewFixedEngine returns the 16-bit fixed-point engine over cb. It fails
// when cb's compacted image exceeds the 16-bit word-address space, a case
// base the hardware cannot hold.
func NewFixedEngine(cb *CaseBase) (*FixedEngine, error) { return retrieval.NewFixedEngine(cb) }

// NewTokenCache returns an empty bypass-token cache.
func NewTokenCache() *TokenCache { return retrieval.NewTokenCache() }

// LocalMeasureByName resolves "linear", "quadratic", "exact" or
// "at-least".
func LocalMeasureByName(name string) (LocalMeasure, error) { return similarity.LocalByName(name) }

// AmalgamationByName resolves "weighted-sum", "minimum", "maximum" or
// "weighted-euclid".
func AmalgamationByName(name string) (Amalgamation, error) {
	return similarity.AmalgamationByName(name)
}

// --- Memory images -------------------------------------------------------

// The 16-bit linear-list memory images of §4.1.
type (
	// MemImage is a block of 16-bit words (a BRAM initialization).
	MemImage = memlist.Image
	// MemoryReport carries the Table 3 consumption figures.
	MemoryReport = memlist.MemoryReport
)

// EncodeTree lays out the fig. 5 implementation tree.
func EncodeTree(cb *CaseBase) (*MemImage, error) { return memlist.EncodeTree(cb) }

// EncodeRequest lays out the fig. 4 (left) request list.
func EncodeRequest(req Request) (*MemImage, error) { return memlist.EncodeRequest(req) }

// EncodeSupplemental lays out the fig. 4 (right) supplemental list with
// pre-computed reciprocals.
func EncodeSupplemental(reg *Registry) *MemImage { return memlist.EncodeSupplemental(reg) }

// MemoryFootprint computes the Table 3 figures for a capacity shape.
func MemoryFootprint(types, implsPerType, attrsPerImpl, reqAttrs, attrUniverse int) MemoryReport {
	return memlist.Report(types, implsPerType, attrsPerImpl, reqAttrs, attrUniverse)
}

// --- Hardware unit --------------------------------------------------------

// The cycle-accurate hardware retrieval unit.
type (
	// HWConfig selects hardware variants (block-compact fetch, trace).
	HWConfig = hwsim.Config
	// HWResult is the unit's output with its cycle count.
	HWResult = hwsim.Result
	// HWUnit is the simulated retrieval unit.
	HWUnit = hwsim.Unit
	// SynthReport is the Table 2 style synthesis estimate.
	SynthReport = synth.Report
	// SynthDevice is an FPGA part with resource totals.
	SynthDevice = synth.Device
)

// HWTrace records FSM and datapath activity during a hardware run.
type HWTrace = rtl.Trace

// NewHWTrace returns an empty trace to pass in HWConfig.Trace.
func NewHWTrace() *HWTrace { return rtl.NewTrace() }

// WriteVCD renders a recorded trace as an IEEE 1364 value change dump
// for waveform viewers.
func WriteVCD(w io.Writer, t *HWTrace, module string) error { return rtl.WriteVCD(w, t, module) }

// HWRetrieve runs one hardware retrieval for req against cb.
func HWRetrieve(cb *CaseBase, req Request, cfg HWConfig) (HWResult, error) {
	return hwsim.Retrieve(cb, req, cfg)
}

// NewHWUnit builds a retrieval unit over pre-encoded memory images.
func NewHWUnit(tree, supp, req *MemImage, cfg HWConfig) *HWUnit {
	return hwsim.New(tree, supp, req, cfg)
}

// EstimateSynthesis reproduces the Table 2 synthesis report for the
// retrieval unit on the given device (use XC2V3000 for the paper's).
func EstimateSynthesis(dev SynthDevice) SynthReport {
	return synth.Estimate(synth.RetrievalUnitNetlist(13), dev, synth.VirtexII())
}

// Virtex-II parts.
var (
	XC2V1000 = synth.XC2V1000
	XC2V3000 = synth.XC2V3000
	XC2V6000 = synth.XC2V6000
)

// --- Software baseline -----------------------------------------------------

// The MicroBlaze-class software retrieval.
type (
	// SWRunner executes the retrieval routine on the CPU model.
	SWRunner = swret.Runner
	// SWResult is a software retrieval outcome with cycle cost.
	SWResult = swret.Result
	// CPUCostModel is the per-class cycle cost table.
	CPUCostModel = mb32.CostModel
)

// NewSWRunner returns the software baseline on the 2004-era base
// MicroBlaze configuration (no barrel shifter).
func NewSWRunner() *SWRunner { return swret.NewRunner() }

// NewSWRunnerWithCosts selects an explicit CPU cost model.
func NewSWRunnerWithCosts(c CPUCostModel) *SWRunner { return swret.NewRunnerWithCosts(c) }

// MicroBlazeCosts is the barrel-shifter-equipped cost model.
func MicroBlazeCosts() CPUCostModel { return mb32.MicroBlazeCosts() }

// MicroBlazeBaseCosts is the 2004-era default core cost model.
func MicroBlazeBaseCosts() CPUCostModel { return mb32.MicroBlazeBaseCosts() }

// --- System: devices, runtime, allocation ----------------------------------

// Platform and allocation-manager layer.
type (
	// Micros is simulation time in microseconds.
	Micros = device.Micros
	// DeviceID names a device instance.
	DeviceID = device.ID
	// Device hosts function implementations.
	Device = device.Device
	// FPGADevice is a run-time reconfigurable device with slots.
	FPGADevice = device.FPGA
	// FPGASlot is one partially reconfigurable region.
	FPGASlot = device.Slot
	// ProcessorDevice hosts software tasks (DSP or GPP).
	ProcessorDevice = device.Processor
	// Repository is the FLASH bitstream/opcode store.
	Repository = device.Repository
	// Blob is one stored configuration image (bitstream or opcode).
	Blob = device.Blob
	// Runtime is the task layer with adaptive priorities.
	Runtime = rtsys.System
	// RuntimeTask is one managed function instantiation.
	RuntimeTask = rtsys.Task
	// TaskID is a run-time task handle.
	TaskID = rtsys.TaskID
	// Manager is the QoS function-allocation manager.
	Manager = alloc.Manager
	// Decision reports a successful allocation.
	Decision = alloc.Decision
	// ErrNoFeasible carries the alternatives offered when nothing
	// placeable matched.
	ErrNoFeasible = alloc.ErrNoFeasible
)

// NewFPGADevice builds an FPGA with the given slots and
// reconfiguration-port bandwidth (bytes per microsecond).
func NewFPGADevice(name DeviceID, slots []FPGASlot, configBytesPerMicro int) *FPGADevice {
	return device.NewFPGA(name, slots, configBytesPerMicro)
}

// NewProcessorDevice builds a DSP or GPP with load (permille) and memory
// (bytes) capacities.
func NewProcessorDevice(name DeviceID, kind Target, loadCapacity, memCapacity int) *ProcessorDevice {
	return device.NewProcessor(name, kind, loadCapacity, memCapacity)
}

// NewRepository returns an empty FLASH repository with the given
// streaming bandwidth (bytes per microsecond).
func NewRepository(bytesPerMicro int) *Repository { return device.NewRepository(bytesPerMicro) }

// NewRuntime builds the run-time system over devices and a repository.
func NewRuntime(repo *Repository, devs ...Device) *Runtime { return rtsys.NewSystem(repo, devs...) }

// --- Fault injection & degradation -------------------------------------------

// Fault-tolerance layer: scripted fault injection against the runtime,
// health-aware devices, and the allocation manager's degrade-and-retry
// recovery.
type (
	// DeviceHealth is a device fault state (healthy/degraded/failed).
	DeviceHealth = device.Health
	// TaskState is a run-time task lifecycle state.
	TaskState = rtsys.State
	// FaultKind classifies one injected fault.
	FaultKind = fault.Kind
	// FaultEvent is one scripted fault.
	FaultEvent = fault.Event
	// FaultPlan is a declarative fault schedule.
	FaultPlan = fault.Plan
	// FaultStormSpec parameterizes a seed-driven fault storm.
	FaultStormSpec = fault.StormSpec
	// FaultStormTarget names one device a storm may hit.
	FaultStormTarget = fault.StormTarget
	// FaultInjector replays a plan against a runtime.
	FaultInjector = fault.Injector
	// FaultApplied records one injected event and what it hit.
	FaultApplied = fault.Applied
	// Degradation names the QoS lost by a fallback placement.
	Degradation = alloc.Degradation
	// DegradationReport is the structured rejection of degrade-and-retry.
	DegradationReport = alloc.DegradationReport
	// Recovery is the degrade-and-retry outcome for one stranded task.
	Recovery = alloc.Recovery
)

// Device health states.
const (
	DeviceHealthy  = device.Healthy
	DeviceDegraded = device.Degraded
	DeviceFailed   = device.Failed
)

// Task lifecycle states, including the fault path.
const (
	TaskPending     = rtsys.Pending
	TaskConfiguring = rtsys.Configuring
	TaskRunning     = rtsys.Running
	TaskPreempted   = rtsys.Preempted
	TaskDone        = rtsys.Done
	TaskFailed      = rtsys.Failed
	TaskRecovering  = rtsys.Recovering
)

// Fault kinds.
const (
	FaultSlotFail    = fault.SlotFail
	FaultDeviceFail  = fault.DeviceFail
	FaultConfigError = fault.ConfigError
	FaultSEU         = fault.SEU
)

// Sentinel errors of the fault path, for errors.Is.
var (
	// ErrDeviceFailed marks placement attempts on a failed device.
	ErrDeviceFailed = device.ErrDeviceFailed
	// ErrNoViableVariant marks exhausted degrade-and-retry (wrapped by
	// both ErrNoFeasible and DegradationReport).
	ErrNoViableVariant = alloc.ErrNoViableVariant
	// ErrBadTransition marks task-lifecycle misuse.
	ErrBadTransition = rtsys.ErrBadTransition
)

// ParseFaultPlan parses the fault-plan DSL: ';'-separated
// "at:kind:device[:slot]" events, e.g.
// "5000:slotfail:fpga0:1;9000:configerr:fpga0;40000:devfail:dsp0".
func ParseFaultPlan(s string) (FaultPlan, error) { return fault.ParsePlan(s) }

// FaultStorm draws a fault schedule from an explicit random source.
func FaultStorm(r *rand.Rand, spec FaultStormSpec) (FaultPlan, error) { return fault.Storm(r, spec) }

// NewFaultInjector binds a fault plan to a runtime.
func NewFaultInjector(sys *Runtime, p FaultPlan) *FaultInjector { return fault.NewInjector(sys, p) }

// --- Workloads & experiments -------------------------------------------------

// Workload generation and paper-experiment drivers.
type (
	// CaseBaseSpec parameterizes a synthetic case base.
	CaseBaseSpec = workload.CaseBaseSpec
	// RequestStreamSpec parameterizes a request stream.
	RequestStreamSpec = workload.RequestStreamSpec
	// AppProfile is one fig. 1 application script.
	AppProfile = workload.AppProfile
	// TenantSpec names one tenant with its QoS class and mix weight.
	TenantSpec = workload.TenantSpec
	// TenantMixSpec parameterizes the tenant dimension of a stream.
	TenantMixSpec = workload.TenantMixSpec
	// TenantedRequest is one request with its tenant attribution.
	TenantedRequest = workload.TenantedRequest
	// TenantCount is one tenant's request tally.
	TenantCount = workload.TenantCount
	// PaperExperiment is one registered table/figure driver.
	PaperExperiment = experiments.Experiment
)

// GenCaseBase synthesizes a validated case base.
func GenCaseBase(spec CaseBaseSpec) (*CaseBase, *Registry, error) { return workload.GenCaseBase(spec) }

// GenRequests synthesizes a valid request stream over cb.
func GenRequests(cb *CaseBase, reg *Registry, spec RequestStreamSpec) ([]Request, error) {
	return workload.GenRequests(cb, reg, spec)
}

// AssignTenants attributes each request to a tenant by weighted draw
// from an explicit seed or source.
func AssignTenants(reqs []Request, spec TenantMixSpec) ([]TenantedRequest, error) {
	return workload.AssignTenants(reqs, spec)
}

// GenTenantedRequests synthesizes a multi-tenant request stream.
func GenTenantedRequests(cb *CaseBase, reg *Registry, stream RequestStreamSpec, mix TenantMixSpec) ([]TenantedRequest, error) {
	return workload.GenTenantedRequests(cb, reg, stream, mix)
}

// ParseTenantMix parses "tenant=class[:weight],..." CLI tenant mixes.
func ParseTenantMix(s string) ([]TenantSpec, error) { return workload.ParseTenantMix(s) }

// DefaultTenantMix is the gold/silver/bronze demo mix.
func DefaultTenantMix() []TenantSpec { return workload.DefaultTenantMix() }

// TenantCounts tallies a tenanted stream by tenant ID, sorted by ID.
func TenantCounts(reqs []TenantedRequest) []TenantCount { return workload.TenantCounts(reqs) }

// PaperScaleSpec is the Table 3 capacity point (15×10×10).
func PaperScaleSpec() CaseBaseSpec { return workload.PaperScale() }

// InfotainmentCaseBase returns the fig. 1 demo platform's tree.
func InfotainmentCaseBase() (*CaseBase, *Registry, error) { return workload.InfotainmentCaseBase() }

// FigureOneApps returns the fig. 1 application mix as timed profiles.
func FigureOneApps() []AppProfile { return workload.Apps() }

// Experiments returns every registered paper-reproduction driver.
func Experiments() []PaperExperiment { return experiments.All() }

// ExperimentByID returns one reproduction driver.
func ExperimentByID(id string) (PaperExperiment, bool) { return experiments.ByID(id) }

// RunAllExperiments regenerates every table and figure into w.
func RunAllExperiments(w io.Writer) error { return experiments.RunAll(w) }

// --- Observability -------------------------------------------------------------

// Metric registry and snapshot types (DESIGN.md §7). Attach one registry
// to the pipeline via Manager.Instrument, Runtime.Instrument and
// FaultInjector.Instrument; uninstrumented components cost a few atomic
// ops and record nothing.
type (
	// ObsRegistry collects counters, gauges, histograms and trace rings
	// for every instrumented layer.
	ObsRegistry = obs.Registry
	// ObsSnapshot is a point-in-time, JSON-serializable metric copy.
	ObsSnapshot = obs.Snapshot
	// ObsEvent is one trace-ring entry (sim-time stamped).
	ObsEvent = obs.Event
	// RetrievalMetrics is the retrieval layer's metric bundle, for
	// instrumenting standalone engines (Manager.Instrument wires its
	// own engines automatically).
	RetrievalMetrics = retrieval.Metrics
)

// NewObsRegistry returns an empty metric registry. It never reads the
// wall clock or a random source: deterministic simulations produce
// bit-exact metric snapshots on every replay.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewRetrievalMetrics registers the retrieval metric set on reg, for use
// with Engine.Instrument.
func NewRetrievalMetrics(reg *ObsRegistry) *RetrievalMetrics { return retrieval.NewMetrics(reg) }

// --- Learning: the fig. 2 CBR cycle ------------------------------------------

// Run-time case-base revision and retention (§5 future work) through
// the Service mutation API: build the service with WithLearning and
// call Observe/Retain/Retire/CommitNow while it serves; every commit
// installs a fresh epoch snapshot without pausing readers (DESIGN.md
// §14).
type (
	// Observation is one run-time QoS measurement of a deployed
	// variant (also the Service.Observe payload).
	Observation = learn.Observation
	// EpochStats snapshots the Service's mutation-side counters:
	// committed epoch, commits by cause, pending delta state.
	EpochStats = serve.EpochStats
	// ErrStaleEpoch reports work prepared against an epoch a commit has
	// since retired; the caller re-reads the committed state (Epoch)
	// and retries.
	ErrStaleEpoch = serve.ErrStaleEpoch
)

// ErrLearningOff reports a Service mutation call without WithLearning:
// the case base is frozen for the process lifetime.
var ErrLearningOff = serve.ErrLearningOff

// --- Statistical similarity (§2.2 alternative) -------------------------------

// Mahalanobis is the covariance-whitened distance the paper evaluates
// and rejects for hardware cost.
type Mahalanobis = similarity.Mahalanobis

// NewMahalanobis builds the measure from implementation attribute
// vectors (one row per implementation).
func NewMahalanobis(samples [][]float64) (*Mahalanobis, error) {
	return similarity.NewMahalanobis(samples)
}

// --- Persistence ---------------------------------------------------------------

// SaveCaseBase writes cb (registry included) to w as a versioned JSON
// document.
func SaveCaseBase(w io.Writer, cb *CaseBase) error { return cbjson.Encode(w, cb) }

// LoadCaseBase reads a JSON document produced by SaveCaseBase and
// rebuilds a fully validated case base.
func LoadCaseBase(r io.Reader) (*CaseBase, error) { return cbjson.Decode(r) }

// --- Application-API & HW-Layer API (fig. 1 levels) ----------------------------

// QoS negotiation sessions (Application-API) and platform status
// snapshots (HW-Layer API).
type (
	// AppSession drives the §3 negotiation protocol for one
	// application.
	AppSession = appapi.Session
	// AppSessionOptions declare the application's relaxation policy.
	AppSessionOptions = appapi.Options
	// AppCall is one negotiated sub-function call with its trail.
	AppCall = appapi.Call
	// NegotiationStep is one round of a call's negotiation trail.
	NegotiationStep = appapi.Step
	// ErrNegotiationFailed reports an exhausted negotiation.
	ErrNegotiationFailed = appapi.ErrNegotiationFailed
	// PlatformStatus is one load/power snapshot of the platform.
	PlatformStatus = hwapi.Status
	// PlatformMonitor keeps a bounded history of snapshots.
	PlatformMonitor = hwapi.Monitor
)

// Negotiation outcomes.
const (
	OutcomePlaced         = appapi.OutcomePlaced
	OutcomeBelowThreshold = appapi.OutcomeBelowThreshold
	OutcomeInfeasible     = appapi.OutcomeInfeasible
)

// OpenSession opens an Application-API session for app at the given
// base priority.
func OpenSession(m *Manager, app string, prio int, opt AppSessionOptions) *AppSession {
	return appapi.NewSession(m, app, prio, opt)
}

// PlatformSnapshot queries the HW-Layer API for the current system load
// and power consumption status.
func PlatformSnapshot(sys *Runtime) PlatformStatus { return hwapi.Snapshot(sys) }

// NewPlatformMonitor returns a monitor keeping up to capacity snapshots.
func NewPlatformMonitor(sys *Runtime, capacity int) *PlatformMonitor {
	return hwapi.NewMonitor(sys, capacity)
}
