// Package netaddr provides the IPv4 prefix arithmetic the simulator needs:
// CIDR blocks, address counting, containment, and a sequential allocator
// that hands out non-overlapping blocks the way an RIR hands out address
// space to its members.
//
// The paper's technical pipeline stage reasons entirely in terms of
// "number of IPv4 addresses originated by AS X geolocated to country C",
// so prefixes here carry only what BGP origination needs: a base address
// and a mask length. IPv6 is out of scope, as it was for the paper's
// market-share estimates.
package netaddr

import (
	"fmt"
	"strconv"
	"strings"
)

// Prefix is an IPv4 CIDR block. The zero value is 0.0.0.0/0.
type Prefix struct {
	// Base is the network address in host byte order. Bits below the
	// mask are guaranteed zero for prefixes built by this package.
	Base uint32
	// Bits is the mask length, 0..32.
	Bits uint8
}

// Make returns the prefix with the given base and length, canonicalizing
// the base by zeroing host bits. It panics if bits > 32.
func Make(base uint32, bits uint8) Prefix {
	if bits > 32 {
		panic(fmt.Sprintf("netaddr: invalid prefix length %d", bits))
	}
	return Prefix{Base: base & mask(bits), Bits: bits}
}

func mask(bits uint8) uint32 {
	if bits == 0 {
		return 0
	}
	return ^uint32(0) << (32 - bits)
}

// Parse parses "a.b.c.d/len" into a Prefix.
func Parse(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netaddr: missing '/' in %q", s)
	}
	addr, err := parseIPv4(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("netaddr: invalid prefix length in %q", s)
	}
	p := Make(addr, uint8(bits))
	if p.Base != addr {
		return Prefix{}, fmt.Errorf("netaddr: %q has non-zero host bits", s)
	}
	return p, nil
}

// MustParse is Parse but panics on error; for embedded constants.
func MustParse(s string) Prefix {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

func parseIPv4(s string) (uint32, error) {
	var out uint32
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netaddr: invalid IPv4 address %q", s)
	}
	for _, part := range parts {
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 255 || (len(part) > 1 && part[0] == '0') {
			return 0, fmt.Errorf("netaddr: invalid IPv4 octet %q", part)
		}
		out = out<<8 | uint32(n)
	}
	return out, nil
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d",
		byte(p.Base>>24), byte(p.Base>>16), byte(p.Base>>8), byte(p.Base), p.Bits)
}

// NumAddresses returns the number of addresses covered by the prefix.
func (p Prefix) NumAddresses() uint64 { return 1 << (32 - uint(p.Bits)) }

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(addr uint32) bool { return addr&mask(p.Bits) == p.Base }

// SumAddresses totals the address counts of the given prefixes. The caller
// is responsible for the prefixes being disjoint if an exact population is
// required; the simulator's allocator only produces disjoint blocks.
func SumAddresses(ps []Prefix) uint64 {
	var n uint64
	for _, p := range ps {
		n += p.NumAddresses()
	}
	return n
}

// Allocator hands out non-overlapping prefixes from a contiguous pool,
// mimicking registry delegation. Allocation is first-fit on aligned
// boundaries, so every returned prefix is canonical and disjoint from all
// previously returned prefixes.
type Allocator struct {
	pool Prefix
	next uint32
	done bool
}

// NewAllocator creates an allocator over the given pool.
func NewAllocator(pool Prefix) *Allocator {
	return &Allocator{pool: pool, next: pool.Base}
}

// Alloc returns the next free block of the requested length, or false if
// the pool is exhausted (or cannot fit a block of that size). Requested
// lengths shorter than the pool's are rejected.
func (a *Allocator) Alloc(bits uint8) (Prefix, bool) {
	if bits > 32 || bits < a.pool.Bits || a.done {
		return Prefix{}, false
	}
	size := uint32(1) << (32 - bits)
	// Align the cursor up to the block size.
	start := a.next
	if rem := start % size; rem != 0 {
		start += size - rem
	}
	// Exhaustion check, careful with uint32 wraparound at 255.255.255.255.
	poolEnd := uint64(a.pool.Base) + uint64(a.pool.NumAddresses())
	if uint64(start)+uint64(size) > poolEnd || start < a.next {
		return Prefix{}, false
	}
	a.next = start + size
	if a.next == 0 { // wrapped: pool ended exactly at top of v4 space
		a.done = true
	}
	return Make(start, bits), true
}
