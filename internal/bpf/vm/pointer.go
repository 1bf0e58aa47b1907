// Package vm executes verified eBPF programs.
//
// There is one engine: programs are decoded once into flat micro-ops
// (expand) and run by a fetch-execute loop (runInterp). Whether the
// simulated CPU has an eBPF JIT — the gap §3.2 of the paper quantifies
// as a factor of 1.8 on whole-router throughput — is model time: a bool
// on the Executable that netsim's cost model reads, not a second way of
// executing here.
//
// Memory safety follows the kernel model: programs only ever hold
// region-tagged pointers (stack, context, packet, map values), and
// every access is bounds-checked against its region. The verifier
// enforces structural properties before execution; the VM's runtime
// checks are the second line of defence.
package vm

// Pointers are 64-bit values with a region ID in the top 16 bits and
// a byte offset in the low 48. Region 0 is reserved: values with a
// zero region are plain scalars, so NULL (0) is naturally a scalar.
const (
	regionShift = 48
	offsetMask  = (uint64(1) << regionShift) - 1
)

// RegionID identifies a memory region within a Machine.
type RegionID uint16

// Well-known regions. Dynamic regions (map arenas, helper-provided
// buffers) are allocated from RegionDynamicBase upward.
const (
	RegionScalar RegionID = 0 // not a memory region
	RegionStack  RegionID = 1
	RegionCtx    RegionID = 2
	RegionPacket RegionID = 3

	RegionDynamicBase RegionID = 8
)

// Pointer builds a tagged pointer into region r at offset off.
func Pointer(r RegionID, off uint64) uint64 {
	return uint64(r)<<regionShift | (off & offsetMask)
}

// Region extracts the region ID of a value. Zero means the value is
// a scalar.
func Region(v uint64) RegionID { return RegionID(v >> regionShift) }

// Offset extracts the in-region byte offset of a pointer.
func Offset(v uint64) uint64 { return v & offsetMask }

// IsPointer reports whether v carries a region tag.
func IsPointer(v uint64) bool { return Region(v) != RegionScalar }
