// Content-addressed build fingerprints and the artifact memo that every
// pipeline run hands to the next generation's build.
//
// A Fingerprint is a SHA-256 digest over a node's canonical inputs,
// written through a Hasher whose encoding is injective by construction:
// every write is tagged with a one-byte type marker and variable-length
// payloads are length-prefixed, so two distinct input sequences can
// never collide by concatenation ambiguity ("ab"+"c" vs "a"+"bc").
// Fingerprints are seeded by a domain string so unrelated node kinds
// can never alias even over identical payloads.
//
// A Memo is the artifact cache one RunMemo execution hands to the next:
// for every node that completed trustworthily it stores the input
// fingerprint the node was built under, an opaque captured artifact
// and, for a node that declares one, the artifact's output
// fingerprint. The next run reuses the artifact when the node's freshly
// computed input fingerprint matches and no dependency changed, or when
// the node rebuilds to the same output (RunMemo states the rule) — the
// differential harness in the root package and internal/snapshot proves
// byte-identity of the shortcut.
package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
)

// Fingerprint is a content hash over a node's canonical inputs. The
// zero value is "no fingerprint" and never matches a computed one.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// IsZero reports whether the fingerprint is the zero value.
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// Hasher accumulates typed, length-prefixed writes into a Fingerprint.
// The write sequence is the identity of the input: calling the same
// methods with the same values always yields the same fingerprint, and
// any differing call sequence yields a different one (up to SHA-256
// collisions). Not safe for concurrent use.
type Hasher struct {
	h   hash.Hash
	buf [10]byte
}

// NewHasher returns a Hasher seeded with a domain-separation string so
// fingerprints of different node kinds can never alias.
func NewHasher(domain string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.tagged('D', []byte(domain))
	return h
}

// tagged writes a one-byte type tag, a uvarint length, and the payload.
func (h *Hasher) tagged(tag byte, payload []byte) {
	h.buf[0] = tag
	n := binary.PutUvarint(h.buf[1:], uint64(len(payload)))
	h.h.Write(h.buf[:1+n])
	h.h.Write(payload)
}

// fixed writes a one-byte type tag and exactly 8 payload bytes.
func (h *Hasher) fixed(tag byte, v uint64) {
	h.buf[0] = tag
	binary.BigEndian.PutUint64(h.buf[1:9], v)
	h.h.Write(h.buf[:9])
}

// Str writes a length-prefixed string.
func (h *Hasher) Str(s string) { h.tagged('s', []byte(s)) }

// Bytes writes a length-prefixed byte slice.
func (h *Hasher) Bytes(b []byte) { h.tagged('b', b) }

// U64 writes an unsigned 64-bit integer.
func (h *Hasher) U64(v uint64) { h.fixed('u', v) }

// I64 writes a signed 64-bit integer.
func (h *Hasher) I64(v int64) { h.fixed('i', uint64(v)) }

// F64 writes a float64 by its IEEE-754 bit pattern, so 0 and -0 (and
// every NaN payload) are distinct inputs — bit identity is the contract
// the differential harness proves, so bit identity is what we hash.
func (h *Hasher) F64(v float64) { h.fixed('f', math.Float64bits(v)) }

// Bool writes a boolean.
func (h *Hasher) Bool(v bool) {
	if v {
		h.fixed('t', 1)
	} else {
		h.fixed('t', 0)
	}
}

// FP writes a previously computed fingerprint, composing hashes.
func (h *Hasher) FP(f Fingerprint) { h.tagged('p', f[:]) }

// StrMapF64 writes a string-keyed float map in sorted key order, so map
// iteration order can never leak into a fingerprint.
func (h *Hasher) StrMapF64(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h.fixed('m', uint64(len(keys)))
	for _, k := range keys {
		h.Str(k)
		h.F64(m[k])
	}
}

// Sum finalizes and returns the fingerprint. The Hasher must not be
// written to afterwards.
func (h *Hasher) Sum() Fingerprint {
	var f Fingerprint
	copy(f[:], h.h.Sum(nil))
	return f
}

// Artifact is one memoized node product: the input fingerprint it was
// built under and the opaque captured value a MemoSpec.Restore knows
// how to re-adopt. Values are shared, never copied — the contract is
// that restored artifacts are immutable (the race regression test in
// internal/snapshot holds the pipeline to it).
type Artifact struct {
	// FP is the input fingerprint the artifact was built under.
	FP Fingerprint
	// Value is the captured artifact, opaque to the scheduler.
	Value any
	// output is the node's MemoSpec.Output over Value; zero when the
	// node declares none.
	output Fingerprint
}

// Memo is the artifact cache produced by one RunMemo execution and
// consumed by the next. It is immutable once returned; a nil *Memo
// means "no prior build" and dirties every node.
type Memo struct {
	nodes map[string]Artifact
}

// Lookup returns the memoized artifact for a node, if present.
func (m *Memo) Lookup(name string) (Artifact, bool) {
	if m == nil {
		return Artifact{}, false
	}
	a, ok := m.nodes[name]
	return a, ok
}

// Nodes returns the memoized node names in sorted order.
func (m *Memo) Nodes() []string {
	if m == nil {
		return nil
	}
	names := make([]string, 0, len(m.nodes))
	for n := range m.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
