// Package kcache is the two-tier kernel cache behind sortsynthd: an
// in-memory LRU in front of a content-addressed on-disk store. A
// synthesized kernel is a pure function of (instruction set, n, m,
// search options), so entries are keyed by a canonical hash of exactly
// the option fields that can influence the synthesized artifact, and a
// cached kernel can be served forever.
package kcache

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/uarch"
)

// Key identifies one synthesis artifact: the instruction-set
// instantiation plus the search options. Only the artifact-determining
// option fields reach the content address; Canonical lists which, and
// which normalizations apply.
type Key struct {
	ISA string // "cmov" or "minmax"
	N   int    // sorted registers (array length)
	M   int    // scratch registers
	// Backend is the registry name of the synthesizer ("" is
	// normalized to "enum", the historical default). Different
	// backends can produce different (all correct) kernels for the
	// same instance, so the name is part of the content address.
	Backend string
	// Seed disambiguates runs of the randomized backends (stoke,
	// mcts); deterministic backends leave it 0.
	Seed int64
	Opt  enum.Options
}

// KeyFor builds the cache key for an enum synthesis run on set with
// opt (Backend "enum", Seed 0).
func KeyFor(set *isa.Set, opt enum.Options) Key {
	name := "cmov"
	if set.Kind == isa.KindMinMax {
		name = "minmax"
	}
	return Key{ISA: name, N: set.N, M: set.M, Opt: opt}
}

// KeyForBackend builds the cache key for a synthesis run through the
// named registry backend. The enum option fields beyond MaxLen do not
// apply to other backends and stay zero; DuplicateSafe does too, since
// sortsynthd rejects duplicate_safe for every backend but enum.
func KeyForBackend(set *isa.Set, backendName string, maxLen int, seed int64) Key {
	name := "cmov"
	if set.Kind == isa.KindMinMax {
		name = "minmax"
	}
	return Key{
		ISA: name, N: set.N, M: set.M,
		Backend: backendName, Seed: seed,
		Opt: enum.Options{MaxLen: maxLen},
	}
}

// KeyVersion is the canonicalization scheme version: the "v3" prefix of
// Canonical. Artifacts that persist keys outside this process (the disk
// tier's version marker, the baked universe header) record it so a
// store written under an older scheme is rejected loudly — with a
// "re-bake" error — instead of silently missing on every lookup.
//
// v3 (this version) appends the synthesis objective and, for
// non-shortest objectives, the uarch model's name; v2 predates
// objectives entirely.
const KeyVersion = 3

// Canonical returns the canonical text form of the key — the string that
// is hashed for content addressing and stored inside each entry for
// verification on load.
//
// Only artifact-determining fields participate. Execution-only knobs are
// deliberately excluded so that operationally different but semantically
// identical requests share an entry:
//
//   - StateBudget, Trace: affect whether the search finishes, not what
//     the finished search produces (sortsynthd never caches an
//     unfinished result);
//   - Workers: deprecated and ignored; the search runs on one
//     goroutine, so nothing in it depends on the worker count or
//     GOMAXPROCS.
//
// Normalizations keep distinct spellings of the same search identical:
// CutK is meaningless when the cut is off, an empty Backend means
// "enum", and the "prof=" segment names the uarch model's one core
// (uarch.ProfileName) for non-shortest objectives, whose winner the
// model picks, and is empty for shortest, where no ranking runs.
//
// Two segments are derived text kept so that every v3 key stays
// byte-identical to the one written when the options still carried a
// heuristic weight and a value-erasure switch: "w=" is always 1, and
// "erase=" is true exactly for the enum backend, whose searches always
// run the erasure check.
func (k Key) Canonical() string {
	return string(k.AppendCanonical(make([]byte, 0, canonicalBufSize)))
}

// canonicalBufSize comfortably holds any canonical key with the
// registry's backend names; longer names just spill into the heap.
const canonicalBufSize = 224

// AppendCanonical appends the canonical text form (see Canonical) to b
// and returns the extended slice. With enough capacity in b it performs
// no allocation, which keeps hot-path key hashing (Sum) off the heap.
func (k Key) AppendCanonical(b []byte) []byte {
	o := k.Opt
	cutK := o.CutK
	if o.Cut == enum.CutNone {
		cutK = 0
	}
	be := k.Backend
	if be == "" {
		be = "enum"
	}
	b = append(b, "v3|backend="...)
	b = append(b, be...)
	b = append(b, "|seed="...)
	b = strconv.AppendInt(b, k.Seed, 10)
	b = append(b, "|isa="...)
	b = append(b, k.ISA...)
	b = append(b, "|n="...)
	b = strconv.AppendInt(b, int64(k.N), 10)
	b = append(b, "|m="...)
	b = strconv.AppendInt(b, int64(k.M), 10)
	b = append(b, "|heur="...)
	b = strconv.AppendUint(b, uint64(o.Heuristic), 10)
	b = append(b, "|w=1|cut="...)
	b = strconv.AppendUint(b, uint64(o.Cut), 10)
	b = append(b, "|k="...)
	b = strconv.AppendFloat(b, cutK, 'g', -1, 64)
	b = append(b, "|dist="...)
	b = strconv.AppendBool(b, o.UseDistPrune)
	b = append(b, "|guide="...)
	b = strconv.AppendBool(b, o.UseActionGuide)
	b = append(b, "|erase="...)
	b = strconv.AppendBool(b, be == "enum")
	b = append(b, "|maxlen="...)
	b = strconv.AppendInt(b, int64(o.MaxLen), 10)
	b = append(b, "|all="...)
	b = strconv.AppendBool(b, o.AllSolutions)
	b = append(b, "|maxsols="...)
	b = strconv.AppendInt(b, int64(o.MaxSolutions), 10)
	b = append(b, "|dupsafe="...)
	b = strconv.AppendBool(b, o.DuplicateSafe)
	b = append(b, "|obj="...)
	b = append(b, o.Objective.String()...)
	b = append(b, "|prof="...)
	if o.Objective != enum.ObjectiveShortest {
		b = append(b, uarch.ProfileName...)
	}
	return b
}

// Sum returns the raw SHA-256 of the canonical key without allocating:
// the fixed-width content address used by the baked universe index.
func (k Key) Sum() [sha256.Size]byte {
	var buf [canonicalBufSize]byte
	return sha256.Sum256(k.AppendCanonical(buf[:0]))
}

// Hash returns the hex SHA-256 of the canonical key: the entry's content
// address, used as both the LRU map key and the on-disk file name.
func (k Key) Hash() string {
	sum := k.Sum()
	return hex.EncodeToString(sum[:])
}
