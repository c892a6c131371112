// Package tuned is the offline half of learned portfolio scheduling:
// a versioned, checksummed dispatch table (results/tuned.json) mapping
// spec classes — ISA × n × duplicate-safety × objective — onto ranked
// backend plans with a measured stagger delay.
//
// The table is produced by the autotune harness (`cmd/experiments
// -table=autotune`), which sweeps backend × budget × heuristic
// knobs per class through internal/bench and persists the best-of-K
// timings. At serve time the table is consulted, never recomputed:
// Load validates the format version and the content checksum, Pick
// answers one class, and Scheduler adapts the table to the staggered
// backend.Portfolio. This is the Codish-et-al. shape — precompute the
// per-size decision offline, look it up at use time — applied to engine
// dispatch instead of sorting networks.
//
// Failure posture: a missing, truncated, corrupt, or version-skewed
// table must never take serving down or produce a wrong pick. Load
// returns typed errors for each failure class; callers degrade to the
// race-everything portfolio (see service.Config.TunedPath) and say so
// once. FuzzTunedTableLoad holds the never-panic, never-silently-wrong
// contract.
package tuned

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// FormatVersion is the tuned.json format this package reads and writes.
// Loads of any other version fail with *VersionError: a scheduling
// table is consulted on every request, so a half-understood one is
// worse than none.
const FormatVersion = 1

// Class is one spec equivalence class for dispatch purposes: every
// request with the same ISA, problem size, duplicate-safety, and
// ranking objective is scheduled identically.
type Class struct {
	ISA           string `json:"isa"` // "cmov" or "minmax"
	N             int    `json:"n"`
	DuplicateSafe bool   `json:"duplicate_safe,omitempty"`
	Objective     string `json:"objective,omitempty"` // "" and "shortest" are the same class
}

// Key renders the canonical class key used in Table.Entries.
func (c Class) Key() string {
	obj := c.Objective
	if obj == "" {
		obj = "shortest"
	}
	return fmt.Sprintf("%s/n=%d/dup=%v/obj=%s", c.ISA, c.N, c.DuplicateSafe, obj)
}

// Candidate is one measured configuration inside a class sweep.
type Candidate struct {
	// Backend is the registry name ("enum", "smt", ...). Only names that
	// are Portfolio members participate in dispatch; the sweep may also
	// record knob variants (search configs) for the table's audit trail
	// under Sweep.
	Backend string `json:"backend"`
	// WallMS is the best-of-Rounds measured wall time; 0 when !OK.
	WallMS float64 `json:"wall_ms"`
	// Rounds is the best-of-K the measurement ran.
	Rounds int `json:"rounds,omitempty"`
	// OK reports the candidate produced a verified kernel within the
	// sweep budget. Failed candidates rank after every successful one.
	OK bool `json:"ok"`
	// Note carries the sweep knobs behind an audit row
	// ("config=distmax slack=+1") or the failure reason for !OK.
	Note string `json:"note,omitempty"`
}

// Plan is one class's dispatch decision.
type Plan struct {
	// Ranked lists the portfolio members predicted-best-first. Failed
	// candidates come last, so a degenerate class still launches its
	// least-bad member first rather than dropping anyone.
	Ranked []Candidate `json:"ranked"`
	// StaggerMS is the tuned delay between successive launches: long
	// enough that the predicted-best member usually wins alone, short
	// enough that a mispredicted class still falls back quickly.
	StaggerMS float64 `json:"stagger_ms"`
	// Sweep preserves the full knob sweep the ranking was distilled
	// from — config/budget variants that are not themselves
	// portfolio members. Audit trail only; dispatch reads Ranked.
	Sweep []Candidate `json:"sweep,omitempty"`
}

// Table is the persisted dispatch table.
type Table struct {
	Version int    `json:"version"`
	Created string `json:"created,omitempty"` // RFC3339, informational
	// Checksum is the hex SHA-256 of the canonical JSON encoding of the
	// table with this field empty. Load recomputes and compares it, so a
	// truncated or bit-flipped table is rejected before a single pick.
	Checksum string          `json:"checksum"`
	Entries  map[string]Plan `json:"entries"`
}

// VersionError reports a table written under a different format version.
type VersionError struct{ Got int }

func (e *VersionError) Error() string {
	return fmt.Sprintf("tuned: table format version %d, this build reads %d (re-run `experiments -table=autotune`)",
		e.Got, FormatVersion)
}

// ChecksumError reports a table whose content hash does not match its
// recorded checksum: truncation, corruption, or hand-editing.
type ChecksumError struct{ Want, Got string }

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("tuned: table checksum mismatch (recorded %s, computed %s) — corrupt or truncated table",
		e.Want, e.Got)
}

// InvalidError reports a well-formed, checksum-valid table that still
// cannot be trusted to schedule (empty plans, negative delays, ...).
type InvalidError struct{ Reason string }

func (e *InvalidError) Error() string { return "tuned: invalid table: " + e.Reason }

// checksum computes the canonical content hash of t with the Checksum
// field blanked. encoding/json renders map keys sorted, so the encoding
// — and therefore the hash — is deterministic.
func (t *Table) checksum() (string, error) {
	cp := *t
	cp.Checksum = ""
	raw, err := json.Marshal(&cp)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// Seal stamps the format version, creation time, and content checksum.
// Write calls it; exposed for tests that build tables by hand.
func (t *Table) Seal(now time.Time) error {
	t.Version = FormatVersion
	if t.Created == "" && !now.IsZero() {
		t.Created = now.UTC().Format(time.RFC3339)
	}
	sum, err := t.checksum()
	if err != nil {
		return err
	}
	t.Checksum = sum
	return nil
}

// validate applies the semantic rules a syntactically valid table must
// still pass before a scheduler may consult it.
func (t *Table) validate() error {
	if len(t.Entries) == 0 {
		return &InvalidError{Reason: "no entries"}
	}
	for key, plan := range t.Entries {
		if len(plan.Ranked) == 0 {
			return &InvalidError{Reason: fmt.Sprintf("entry %q has an empty ranking", key)}
		}
		if plan.StaggerMS < 0 {
			return &InvalidError{Reason: fmt.Sprintf("entry %q has negative stagger %v", key, plan.StaggerMS)}
		}
		for i, cand := range plan.Ranked {
			if cand.Backend == "" {
				return &InvalidError{Reason: fmt.Sprintf("entry %q rank %d names no backend", key, i)}
			}
			if cand.WallMS < 0 {
				return &InvalidError{Reason: fmt.Sprintf("entry %q rank %d has negative wall time", key, i)}
			}
		}
	}
	return nil
}

// Pick returns the class's plan. ok=false means the class was never
// tuned — the caller races everything, exactly as if no table were
// mounted.
func (t *Table) Pick(c Class) (Plan, bool) {
	p, ok := t.Entries[c.Key()]
	return p, ok
}

// Stagger returns the plan's launch delay as a duration.
func (p Plan) Stagger() time.Duration {
	return time.Duration(p.StaggerMS * float64(time.Millisecond))
}

// Parse decodes and fully validates a tuned table from raw bytes:
// syntax, format version, content checksum, then semantic validation —
// in that order, so the error names the outermost problem. It never
// panics, whatever the input.
func Parse(raw []byte) (*Table, error) {
	var t Table
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("tuned: parse table: %w", err)
	}
	if t.Version != FormatVersion {
		return nil, &VersionError{Got: t.Version}
	}
	want := t.Checksum
	if want == "" {
		return nil, &ChecksumError{Want: "(missing)", Got: "unverifiable"}
	}
	got, err := t.checksum()
	if err != nil {
		return nil, fmt.Errorf("tuned: rehash table: %w", err)
	}
	if got != want {
		return nil, &ChecksumError{Want: want, Got: got}
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Load reads and validates the table at path.
func Load(path string) (*Table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tuned: %w", err)
	}
	return Parse(raw)
}

// Write seals t and writes it atomically (temp + rename), so a crashed
// writer never leaves a half-table where a scheduler could mount it.
func Write(path string, t *Table) error {
	if err := t.Seal(time.Now()); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(t, "", "\t")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tuned-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
