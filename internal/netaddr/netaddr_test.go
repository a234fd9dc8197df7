package netaddr

import (
	"testing"
	"testing/quick"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24", "1.2.3.4/32", "100.64.0.0/10"}
	for _, s := range cases {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if p.String() != s {
			t.Errorf("round trip %q -> %q", s, p.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "256.0.0.0/8",
		"10.0.0/8", "10.0.0.0.0/8", "10.0.0.1/24", "a.b.c.d/8", "10.01.0.0/8"}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestNumAddresses(t *testing.T) {
	if n := MustParse("10.0.0.0/8").NumAddresses(); n != 1<<24 {
		t.Errorf("/8 = %d addresses", n)
	}
	if n := MustParse("1.2.3.4/32").NumAddresses(); n != 1 {
		t.Errorf("/32 = %d addresses", n)
	}
	if n := MustParse("0.0.0.0/0").NumAddresses(); n != 1<<32 {
		t.Errorf("/0 = %d addresses", n)
	}
}

// covers reports whether p covers all of q (p is q or a supernet of q).
func covers(p, q Prefix) bool {
	return p.Bits <= q.Bits && q.Base&mask(p.Bits) == p.Base
}

// overlaps reports whether the two prefixes share any address.
func overlaps(p, q Prefix) bool { return covers(p, q) || covers(q, p) }

// remaining returns the number of addresses still unallocated in the pool.
func remaining(a *Allocator) uint64 {
	if a.done {
		return 0
	}
	poolEnd := uint64(a.pool.Base) + uint64(a.pool.NumAddresses())
	return poolEnd - uint64(a.next)
}

func TestCoversAndOverlaps(t *testing.T) {
	p8 := MustParse("10.0.0.0/8")
	p16 := MustParse("10.1.0.0/16")
	other := MustParse("11.0.0.0/8")
	if !covers(p8, p16) {
		t.Error("/8 should cover nested /16")
	}
	if covers(p16, p8) {
		t.Error("/16 should not cover parent /8")
	}
	if !overlaps(p8, p16) || !overlaps(p16, p8) {
		t.Error("nested prefixes should overlap symmetrically")
	}
	if overlaps(p8, other) {
		t.Error("disjoint /8s should not overlap")
	}
	if !covers(p8, p8) {
		t.Error("prefix should cover itself")
	}
}

func TestContains(t *testing.T) {
	p := MustParse("192.168.0.0/16")
	in, _ := parseIPv4("192.168.5.9")
	out, _ := parseIPv4("192.169.0.0")
	if !p.Contains(in) {
		t.Error("address inside prefix not contained")
	}
	if p.Contains(out) {
		t.Error("address outside prefix contained")
	}
}

func TestMakeCanonicalizes(t *testing.T) {
	p := Make(0x0a0a0a0a, 8)
	if p.Base != 0x0a000000 {
		t.Errorf("Make did not zero host bits: %08x", p.Base)
	}
}

// Property: any allocator sequence yields pairwise-disjoint canonical
// prefixes fully contained in the pool.
func TestAllocatorDisjoint(t *testing.T) {
	err := quick.Check(func(seed uint8) bool {
		pool := MustParse("10.0.0.0/8")
		a := NewAllocator(pool)
		var got []Prefix
		// Mix of sizes driven by the seed.
		sizes := []uint8{24, 22, 20, 16, 24, 19, 28}
		for i := 0; i < 40; i++ {
			bits := sizes[(int(seed)+i)%len(sizes)]
			p, ok := a.Alloc(bits)
			if !ok {
				break
			}
			if !covers(pool, p) {
				return false
			}
			for _, q := range got {
				if overlaps(p, q) {
					return false
				}
			}
			got = append(got, p)
		}
		return len(got) > 0
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(MustParse("10.0.0.0/30"))
	var n int
	for {
		if _, ok := a.Alloc(32); !ok {
			break
		}
		n++
	}
	if n != 4 {
		t.Errorf("allocated %d /32s from a /30, want 4", n)
	}
	if remaining(a) != 0 {
		t.Errorf("remaining = %d after exhaustion", remaining(a))
	}
}

func TestAllocatorRejectsLargerThanPool(t *testing.T) {
	a := NewAllocator(MustParse("10.0.0.0/16"))
	if _, ok := a.Alloc(8); ok {
		t.Error("allocated a /8 from a /16 pool")
	}
}

func TestAllocatorTopOfSpace(t *testing.T) {
	a := NewAllocator(MustParse("255.255.255.0/24"))
	got := 0
	for {
		if _, ok := a.Alloc(26); !ok {
			break
		}
		got++
	}
	if got != 4 {
		t.Errorf("allocated %d /26s at top of v4 space, want 4", got)
	}
}

func TestSumAddresses(t *testing.T) {
	ps := []Prefix{MustParse("10.0.0.0/24"), MustParse("10.0.1.0/24")}
	if n := SumAddresses(ps); n != 512 {
		t.Errorf("SumAddresses = %d, want 512", n)
	}
}
