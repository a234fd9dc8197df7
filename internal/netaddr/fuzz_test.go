package netaddr

import "testing"

// FuzzParse checks that Parse never panics and that every accepted input
// round-trips through String.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"10.0.0.0/8", "0.0.0.0/0", "255.255.255.255/32", "192.168.1.0/24",
		"", "/", "10.0.0.0", "10.0.0.0/33", "10.0.0.1/24", "a.b.c.d/0",
		"256.1.1.1/8", "1.2.3.4/-1", "01.2.3.4/8", "1.2.3.4/08",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		back, err2 := Parse(p.String())
		if err2 != nil {
			t.Fatalf("accepted %q -> %q which does not re-parse: %v", s, p.String(), err2)
		}
		if back != p {
			t.Fatalf("round trip %q -> %v -> %v", s, p, back)
		}
		if p.NumAddresses() == 0 {
			t.Fatalf("%v has zero addresses", p)
		}
	})
}

// FuzzContainsCovers cross-checks Contains against covers on /32s.
func FuzzContainsCovers(f *testing.F) {
	f.Add(uint32(0x0a000000), uint8(8), uint32(0x0a010203))
	f.Add(uint32(0xffffffff), uint8(32), uint32(0xffffffff))
	f.Add(uint32(0), uint8(0), uint32(12345))
	f.Fuzz(func(t *testing.T, base uint32, bits uint8, addr uint32) {
		if bits > 32 {
			return
		}
		p := Make(base, bits)
		host := Make(addr, 32)
		if p.Contains(addr) != covers(p, host) {
			t.Fatalf("Contains(%08x)=%v but Covers(/32)=%v for %v",
				addr, p.Contains(addr), covers(p, host), p)
		}
		if covers(p, host) && !overlaps(p, host) {
			t.Fatal("covers implies overlaps")
		}
	})
}
