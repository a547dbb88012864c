package admit

// Tenant QoS-class budgets: the fleet layer's class-of-service
// enforcement, modeled on how Intel RDT partitions shared hardware —
// each class of service owns an integer slice of cache ways / memory
// bandwidth, usage is attributed per class, and an over-budget class is
// throttled without touching its neighbors' slices. Here the shared
// hardware is the reconfigurable platform: FPGA slices and BRAMs are
// the space-shared resources (held for the lifetime of a placement),
// and reconfiguration bytes through the ICAP are the time-shared one
// (a deterministic rate bucket, the same microBucket as the request
// Limiter). A tenant exceeding any dimension gets a typed
// *ErrBudgetExceeded naming the resource; tenants never queue on each
// other's budgets, which is what keeps a noisy neighbor from starving
// a degraded tenant's recovery.

import (
	"fmt"
	"sync"

	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
)

// QoSClass names a tenant service class bound to one ClassBudget.
type QoSClass string

// ClassBudget is the integer resource envelope of one QoS class. A
// zero field means that dimension is unmetered for the class.
type ClassBudget struct {
	// Slices bounds the FPGA slices a tenant may hold concurrently.
	Slices int
	// BRAMs bounds the block RAMs a tenant may hold concurrently.
	BRAMs int
	// ConfigBytesPerSec bounds the tenant's reconfiguration-port
	// bandwidth in bytes per second of sim time.
	ConfigBytesPerSec int64
	// ConfigBurstBytes is the bandwidth bucket's capacity; zero with a
	// nonzero rate defaults to one second's worth of bytes.
	ConfigBurstBytes int64
}

func (b ClassBudget) withDefaults() ClassBudget {
	if b.ConfigBytesPerSec > 0 && b.ConfigBurstBytes <= 0 {
		b.ConfigBurstBytes = b.ConfigBytesPerSec
	}
	return b
}

// Budget resource names used in ErrBudgetExceeded.Resource.
const (
	ResourceSlices      = "slices"
	ResourceBRAMs       = "brams"
	ResourceConfigBytes = "config_bytes"
)

// ErrBudgetExceeded is the typed per-tenant rejection: admitting the
// footprint would push the tenant's QoS class past its budget on
// Resource. RetryAfter is nonzero only for the bandwidth dimension,
// where waiting accrues headroom; space dimensions free up only when
// the tenant releases a placement.
type ErrBudgetExceeded struct {
	Tenant     string
	Class      QoSClass
	Resource   string
	Need       int64
	Used       int64
	Budget     int64
	RetryAfter device.Micros
}

func (e *ErrBudgetExceeded) Error() string {
	return fmt.Sprintf("admit: tenant %q (class %q) over %s budget: need %d, holding %d of %d",
		e.Tenant, e.Class, e.Resource, e.Need, e.Used, e.Budget)
}

// tenantUsage is one tenant's live holdings and bandwidth bucket.
type tenantUsage struct {
	slices int
	brams  int
	// bw is the bandwidth bucket in micro-bytes, capped at
	// ConfigBurstBytes.
	bw microBucket
}

// Ledger attributes platform usage to tenants and enforces their QoS
// classes' budgets at admission time. Safe for concurrent use. All
// timestamps are sim time, so a fleet replay admits bit-identically.
type Ledger struct {
	mu      sync.Mutex
	classes map[QoSClass]ClassBudget
	tenants map[string]QoSClass
	usage   map[string]*tenantUsage
}

// NewLedger returns an empty ledger: no classes, no tenants, every
// admission unmetered until bindings are added.
func NewLedger() *Ledger {
	return &Ledger{
		classes: make(map[QoSClass]ClassBudget),
		tenants: make(map[string]QoSClass),
		usage:   make(map[string]*tenantUsage),
	}
}

// DefineClass registers (or replaces) a QoS class's budget.
func (l *Ledger) DefineClass(class QoSClass, b ClassBudget) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.classes[class] = b.withDefaults()
}

// BindTenant maps a tenant to a QoS class. A tenant bound to an
// undefined class is admitted unmetered until the class is defined.
func (l *Ledger) BindTenant(tenant string, class QoSClass) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tenants[tenant] = class
}

// ClassOf returns the tenant's QoS class binding.
func (l *Ledger) ClassOf(tenant string) (QoSClass, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.tenants[tenant]
	return c, ok
}

// Admit charges tenant for placing a variant with footprint f at sim
// time now: slices and BRAMs are held until Release; f.ConfigBytes is
// drawn from the class's bandwidth bucket. The charge is atomic — on
// any exceeded dimension nothing is charged and a typed
// *ErrBudgetExceeded names the first exceeded resource in canonical
// slices, BRAMs, config-bytes order. Unbound tenants are unmetered.
func (l *Ledger) Admit(tenant string, f casebase.Footprint, now device.Micros) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	class, bound := l.tenants[tenant]
	if !bound {
		return nil
	}
	budget, defined := l.classes[class]
	if !defined {
		return nil
	}
	u := l.usage[tenant]
	if u == nil {
		u = &tenantUsage{bw: microBucket{micro: budget.ConfigBurstBytes * microPerToken, last: now}}
		l.usage[tenant] = u
	}
	if budget.Slices > 0 && u.slices+f.Slices > budget.Slices {
		return &ErrBudgetExceeded{
			Tenant: tenant, Class: class, Resource: ResourceSlices,
			Need: int64(f.Slices), Used: int64(u.slices), Budget: int64(budget.Slices),
		}
	}
	if budget.BRAMs > 0 && u.brams+f.BRAMs > budget.BRAMs {
		return &ErrBudgetExceeded{
			Tenant: tenant, Class: class, Resource: ResourceBRAMs,
			Need: int64(f.BRAMs), Used: int64(u.brams), Budget: int64(budget.BRAMs),
		}
	}
	if budget.ConfigBytesPerSec > 0 && f.ConfigBytes > 0 {
		retry, ok := u.bw.take(int64(f.ConfigBytes), budget.ConfigBytesPerSec, budget.ConfigBurstBytes, now)
		if !ok {
			return &ErrBudgetExceeded{
				Tenant: tenant, Class: class, Resource: ResourceConfigBytes,
				Need: int64(f.ConfigBytes), Used: (budget.ConfigBurstBytes*microPerToken - u.bw.micro) / microPerToken,
				Budget: budget.ConfigBurstBytes, RetryAfter: retry,
			}
		}
	}
	u.slices += f.Slices
	u.brams += f.BRAMs
	return nil
}

// Release returns a placement's space-shared holdings (slices, BRAMs)
// to the tenant. Bandwidth is never refunded: the configuration bytes
// were actually streamed through the port.
func (l *Ledger) Release(tenant string, f casebase.Footprint) {
	l.mu.Lock()
	defer l.mu.Unlock()
	u := l.usage[tenant]
	if u == nil {
		return
	}
	if u.slices -= f.Slices; u.slices < 0 {
		u.slices = 0
	}
	if u.brams -= f.BRAMs; u.brams < 0 {
		u.brams = 0
	}
}

// Refund undoes an Admit whose placement never happened: the space
// holdings are released and the bandwidth draw is returned to the
// bucket (no bitstream was streamed), capped at the class burst.
func (l *Ledger) Refund(tenant string, f casebase.Footprint) {
	l.mu.Lock()
	defer l.mu.Unlock()
	u := l.usage[tenant]
	if u == nil {
		return
	}
	if u.slices -= f.Slices; u.slices < 0 {
		u.slices = 0
	}
	if u.brams -= f.BRAMs; u.brams < 0 {
		u.brams = 0
	}
	budget, ok := l.classes[l.tenants[tenant]]
	if ok && budget.ConfigBytesPerSec > 0 && f.ConfigBytes > 0 {
		u.bw.micro = min(u.bw.micro+int64(f.ConfigBytes)*microPerToken,
			budget.ConfigBurstBytes*microPerToken)
	}
}

// ForceCharge records holdings without any budget check — the recovery
// path: a fault-stranded task being re-placed already owns its capacity
// envelope, so neither the tenant's own budget nor a noisy neighbor's
// pressure may block the substitute placement. Bandwidth is not drawn;
// fault recovery is the platform's doing, not tenant demand.
func (l *Ledger) ForceCharge(tenant string, f casebase.Footprint) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, bound := l.tenants[tenant]; !bound {
		return
	}
	u := l.usage[tenant]
	if u == nil {
		budget := l.classes[l.tenants[tenant]]
		u = &tenantUsage{bw: microBucket{micro: budget.ConfigBurstBytes * microPerToken}}
		l.usage[tenant] = u
	}
	u.slices += f.Slices
	u.brams += f.BRAMs
}

// Usage reports a tenant's current holdings (slices, BRAMs) for
// observability; zeros for tenants that never admitted anything.
func (l *Ledger) Usage(tenant string) (slices, brams int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if u := l.usage[tenant]; u != nil {
		return u.slices, u.brams
	}
	return 0, 0
}
