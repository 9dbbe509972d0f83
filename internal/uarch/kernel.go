package uarch

import "fmt"

// Kernel selects the core simulation kernel. Both kernels implement the
// same microarchitecture and produce bit-identical Stats (enforced by the
// differential oracle in oracle_test.go); they differ only in asymptotic
// cost per simulated cycle.
type Kernel uint8

const (
	// KernelEvent is the event-driven kernel: producer→consumer wakeup
	// lists and a seq-ordered ready queue make issue O(ready) instead of
	// O(ROBSize), store-to-load forwarding is a line-address-indexed map
	// lookup instead of an O(SQSize) CAM scan, and Run fast-forwards over
	// cycles in which no pipeline stage can make progress. Default.
	KernelEvent Kernel = iota
	// KernelReference is the original scan-based kernel: every cycle walks
	// the whole ROB re-polling ready() and the whole store queue on every
	// load. Kept as the oracle baseline and for differential debugging.
	KernelReference
)

// String returns the kernel's name, the spelling journal identities key
// on.
func (k Kernel) String() string {
	switch k {
	case KernelEvent:
		return "event"
	case KernelReference:
		return "reference"
	default:
		return fmt.Sprintf("Kernel(%d)", uint8(k))
	}
}

// KernelKind reports which kernel the core runs.
func (c *Core) KernelKind() Kernel { return c.kern }
