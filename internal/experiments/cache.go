// The result cache: the core.Result of every simulation a Runner makes,
// baselines included, kept across processes under one directory
// (Options.CacheDir, experiments -cache), one file per run key. Entries
// are written atomically (temp file + rename) and carry an integrity
// header — the sha256 of the JSON body on the first line — so a
// truncated, bit-flipped, or foreign file is a miss and is simulated
// again, never served or crashed on.
//
// The key hashes everything a result depends on: the resolved config, the
// benchmark profile, the instruction budget, the policy's PolicyByName
// spec and the fingerprint of the simulation sources compiled into the
// binary (hybriddtm.SourceFingerprint). So a result written by other
// code is never served. A traced or profiled run always simulates, as
// does a job whose factory has no spec. The cache is unbounded.
package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

// cacheSchema identifies the on-disk entry schema. Entries with another
// schema (or kind) are misses.
const cacheSchema = 1

// kindCacheEntry is the "kind" discriminator of cache-entry documents.
const kindCacheEntry = "experiments-result"

// sumPrefix starts the integrity header line of every entry file.
const sumPrefix = "sha256:"

// runIdentity is what a run key hashes.
type runIdentity struct {
	Sources      string                `json:"sources"`
	Config       core.Config           `json:"config"`
	Ladder       []dvfs.OperatingPoint `json:"ladder"` // Config.Ladder's points, which it does not marshal
	Profile      trace.Profile         `json:"profile"`
	Instructions uint64                `json:"instructions"`
	Policy       *policySpec           `json:"policy"` // nil for a baseline
}

// runKey returns the cache key of a run: a short hex sha256 over the
// canonical JSON of its identity (obs.HashJSON). The config's Tracer and
// Profiler are wiring, not configuration, and are left out.
func runKey(sources string, cfg core.Config, prof trace.Profile, insts uint64, spec *policySpec) (string, error) {
	cfg.Tracer, cfg.Profiler = nil, nil
	id := runIdentity{Sources: sources, Config: cfg, Profile: prof, Instructions: insts, Policy: spec}
	if l := cfg.Ladder; l != nil {
		for i := 0; i < l.NumPoints(); i++ {
			id.Ladder = append(id.Ladder, l.Point(i))
		}
	}
	return obs.HashJSON(id)
}

// cacheEntry is one cached result.
type cacheEntry struct {
	Kind   string      `json:"kind"` // always kindCacheEntry
	Schema int         `json:"schema"`
	Key    string      `json:"key"`
	Result core.Result `json:"result"`
}

// resultCache is a content-addressed result store rooted at one
// directory. get and put are safe for concurrent use: writes are atomic
// renames, and readers see the complete old file, the complete new file,
// or a verifiable corruption (a miss).
type resultCache struct {
	dir string
}

// openCache creates (if needed) and opens the cache directory.
func openCache(dir string) (*resultCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("experiments: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: cache dir: %w", err)
	}
	return &resultCache{dir: dir}, nil
}

// validKey guards path construction: keys are the short hex digests
// obs.HashJSON produces, nothing else reaches the filesystem.
func validKey(key string) bool {
	if len(key) != 16 {
		return false
	}
	for _, r := range key {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			return false
		}
	}
	return true
}

func (c *resultCache) entryPath(key string) string { return filepath.Join(c.dir, key+".json") }

// encodeEntry renders an entry in the on-disk format: an integrity line
// "sha256:<hex digest of body>\n" followed by the JSON body.
func encodeEntry(e cacheEntry) ([]byte, error) {
	body, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiments: encode cache entry: %w", err)
	}
	body = append(body, '\n')
	sum := sha256.Sum256(body)
	header := sumPrefix + hex.EncodeToString(sum[:]) + "\n"
	return append([]byte(header), body...), nil
}

// decodeEntry parses and verifies the on-disk format against the
// expected key. Any deviation — short file, bad header, digest mismatch,
// JSON damage, wrong kind, schema or key — is an error, which callers
// treat as a miss.
func decodeEntry(data []byte, wantKey string) (cacheEntry, error) {
	header, body, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		return cacheEntry{}, fmt.Errorf("experiments: cache entry missing integrity header")
	}
	if len(header) != len(sumPrefix)+2*sha256.Size || !bytes.HasPrefix(header, []byte(sumPrefix)) {
		return cacheEntry{}, fmt.Errorf("experiments: malformed integrity header %q", header)
	}
	want, err := hex.DecodeString(string(header[len(sumPrefix):]))
	if err != nil {
		return cacheEntry{}, fmt.Errorf("experiments: malformed integrity digest: %w", err)
	}
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], want) {
		return cacheEntry{}, fmt.Errorf("experiments: cache entry integrity mismatch")
	}
	var e cacheEntry
	if err := json.Unmarshal(body, &e); err != nil {
		return cacheEntry{}, fmt.Errorf("experiments: cache entry body: %w", err)
	}
	switch {
	case e.Kind != kindCacheEntry:
		return cacheEntry{}, fmt.Errorf("experiments: cache entry kind %q, want %q", e.Kind, kindCacheEntry)
	case e.Schema != cacheSchema:
		return cacheEntry{}, fmt.Errorf("experiments: cache entry schema %d, want %d", e.Schema, cacheSchema)
	case e.Key != wantKey:
		return cacheEntry{}, fmt.Errorf("experiments: cache entry key %q does not match file key %q", e.Key, wantKey)
	}
	return e, nil
}

// get returns the cached result for key, or ok=false on any miss —
// including a present but damaged file, which is left in place for
// inspection and simulated over.
func (c *resultCache) get(key string) (core.Result, bool) {
	if !validKey(key) {
		return core.Result{}, false
	}
	data, err := os.ReadFile(c.entryPath(key))
	if err != nil {
		return core.Result{}, false
	}
	e, err := decodeEntry(data, key)
	if err != nil {
		return core.Result{}, false
	}
	return e.Result, true
}

// put stores a result atomically: the bytes land under a temporary name
// and are renamed into place, so concurrent readers and an interrupted
// run never see a half-written entry under its final key.
func (c *resultCache) put(key string, res core.Result) error {
	if !validKey(key) {
		return fmt.Errorf("experiments: invalid cache key %q", key)
	}
	data, err := encodeEntry(cacheEntry{Kind: kindCacheEntry, Schema: cacheSchema, Key: key, Result: res})
	if err != nil {
		return err
	}
	return c.writeAtomic(c.entryPath(key), data)
}

func (c *resultCache) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("experiments: cache write: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close() //dtmlint:allow errsink already failing; best-effort cleanup before removing the temp file
		os.Remove(name)
		return fmt.Errorf("experiments: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("experiments: cache write: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("experiments: cache write: %w", err)
	}
	return nil
}
