package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

func testEntry(t testing.TB) cacheEntry {
	t.Helper()
	p, _ := trace.ByName("gzip")
	cfg := core.DefaultConfig()
	key, err := runKey("src", cfg, p, 100_000, DVSPolicy(cfg).spec)
	if err != nil {
		t.Fatalf("runKey: %v", err)
	}
	return cacheEntry{
		Kind:   kindCacheEntry,
		Schema: cacheSchema,
		Key:    key,
		Result: core.Result{Benchmark: "gzip", Policy: "dvs", Instructions: 100_000, WallTime: 1.0625e-3, MaxTemp: 81.5},
	}
}

func TestCacheRoundtrip(t *testing.T) {
	c, err := openCache(t.TempDir())
	if err != nil {
		t.Fatalf("openCache: %v", err)
	}
	e := testEntry(t)
	if _, ok := c.get(e.Key); ok {
		t.Fatalf("get before put: unexpected hit")
	}
	if err := c.put(e.Key, e.Result); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, ok := c.get(e.Key)
	if !ok {
		t.Fatalf("get after put: miss")
	}
	if got != e.Result {
		t.Fatalf("roundtrip mismatch:\n put %+v\n got %+v", e.Result, got)
	}
}

func TestCacheRejectsCorruption(t *testing.T) {
	e := testEntry(t)
	valid, err := encodeEntry(e)
	if err != nil {
		t.Fatalf("encodeEntry: %v", err)
	}
	if _, err := decodeEntry(valid, e.Key); err != nil {
		t.Fatalf("decodeEntry of valid encoding: %v", err)
	}

	// Every truncation of the valid encoding must be a detected miss.
	for n := 0; n < len(valid); n++ {
		if _, err := decodeEntry(valid[:n], e.Key); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Any single bit flip anywhere — header or body — must be detected.
	// (Stride keeps the quadratic loop cheap; offsets cover both regions.)
	for off := 0; off < len(valid); off += 7 {
		corrupt := append([]byte(nil), valid...)
		corrupt[off] ^= 0x01
		if _, err := decodeEntry(corrupt, e.Key); err == nil {
			t.Fatalf("bit flip at offset %d decoded successfully", off)
		}
	}
	// A valid entry served under the wrong key must be rejected.
	if _, err := decodeEntry(valid, strings.Repeat("0", 16)); err == nil {
		t.Fatalf("entry accepted under foreign key")
	}
}

func TestCacheDamagedFileIsMissNotError(t *testing.T) {
	c, err := openCache(t.TempDir())
	if err != nil {
		t.Fatalf("openCache: %v", err)
	}
	e := testEntry(t)
	if err := c.put(e.Key, e.Result); err != nil {
		t.Fatalf("put: %v", err)
	}
	path := c.entryPath(e.Key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatalf("truncate entry: %v", err)
	}
	if _, ok := c.get(e.Key); ok {
		t.Fatalf("get served a truncated entry")
	}
	// The damaged file is left in place for inspection, and put repairs it.
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("damaged entry removed: %v", err)
	}
	if err := c.put(e.Key, e.Result); err != nil {
		t.Fatalf("put over damaged entry: %v", err)
	}
	if _, ok := c.get(e.Key); !ok {
		t.Fatalf("get after repair: miss")
	}
}

func TestCacheWrongSchemaOrKind(t *testing.T) {
	e := testEntry(t)
	for _, mutate := range []func(*cacheEntry){
		func(e *cacheEntry) { e.Schema = cacheSchema + 1 },
		func(e *cacheEntry) { e.Kind = "something-else" },
	} {
		bad := e
		mutate(&bad)
		data, err := encodeEntry(bad)
		if err != nil {
			t.Fatalf("encodeEntry: %v", err)
		}
		if _, err := decodeEntry(data, e.Key); err == nil {
			t.Fatalf("mutated entry %+v decoded successfully", bad)
		}
	}
}

func TestCacheKeyHygiene(t *testing.T) {
	c, err := openCache(t.TempDir())
	if err != nil {
		t.Fatalf("openCache: %v", err)
	}
	for _, key := range []string{"", "..", "../../etc/passwd", "short", "ABCDEF0123456789", strings.Repeat("g", 16)} {
		if _, ok := c.get(key); ok {
			t.Fatalf("get(%q) hit", key)
		}
		if err := c.put(key, core.Result{}); err == nil {
			t.Fatalf("put(%q) accepted", key)
		}
	}
	if _, err := openCache(""); err == nil {
		t.Fatalf("openCache accepted an empty directory")
	}
}

func TestCacheNoPartialFilesAfterPut(t *testing.T) {
	c, err := openCache(t.TempDir())
	if err != nil {
		t.Fatalf("openCache: %v", err)
	}
	e := testEntry(t)
	if err := c.put(e.Key, e.Result); err != nil {
		t.Fatalf("put: %v", err)
	}
	names, err := os.ReadDir(c.dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, d := range names {
		if strings.HasPrefix(d.Name(), "tmp-") {
			t.Fatalf("temporary file %s left behind", d.Name())
		}
	}
}

func FuzzCacheEntry(f *testing.F) {
	e := testEntry(f)
	valid, err := encodeEntry(e)
	if err != nil {
		f.Fatalf("encodeEntry: %v", err)
	}
	key := e.Key

	// Seeds: the valid encoding plus systematic damage — truncations,
	// bit flips in header and body, a missing header, a foreign document.
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(sumPrefix)+3])
	f.Add([]byte("sha256:deadbeef\n{}"))
	f.Add([]byte("{\"kind\":\"" + kindCacheEntry + "\"}"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeEntry(data, key)
		if err != nil {
			return // a miss: the runner simulates, never serves damage
		}
		// Anything accepted must carry the expected key and survive a
		// re-encode (the format has one canonical encoding per entry, so
		// a decoded entry re-encodes to a decodable form).
		if got.Key != key {
			t.Fatalf("decoded entry carries key %q, want %q", got.Key, key)
		}
		enc, err := encodeEntry(got)
		if err != nil {
			t.Fatalf("re-encode of accepted entry: %v", err)
		}
		if _, err := decodeEntry(enc, key); err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
	})
}

// visitLeaves changes every settable leaf reachable from v in turn —
// bools flip, numbers grow, strings lengthen, slice elements recurse —
// and calls visit with the leaf's path before restoring it. Pointers and
// interfaces are the caller's to cover; an unexported field, which JSON
// would silently leave out of a key, is an error.
func visitLeaves(t *testing.T, v reflect.Value, path string, visit func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Errorf("%s.%s is unexported, so no key sees it", path, f.Name)
				continue
			}
			visitLeaves(t, v.Field(i), path+"."+f.Name, visit)
		}
		return
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			visitLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
		return
	case reflect.Pointer, reflect.Interface:
		return
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*1.5 + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: no way to change a %s", path, v.Kind())
	}
	visit(path)
	v.Set(old)
}

// TestRunKeyInputs changes each input of a run key in turn — every leaf
// of the config, the profile and the policy spec, the ladder, the
// instruction budget and the source fingerprint — and requires a new key
// each time. The config's Tracer and Profiler are wiring and change none.
func TestRunKeyInputs(t *testing.T) {
	cfg := core.DefaultConfig()
	prof, _ := trace.ByName("gzip")
	insts := uint64(300_000)
	spec := *DVSPolicy(cfg).spec
	sources := "src"
	key := func() string {
		t.Helper()
		s := spec
		k, err := runKey(sources, cfg, prof, insts, &s)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := key()
	seen := map[string]string{base: "base"}
	check := func(path string) {
		k := key()
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s gives the key of %s", path, prev)
		}
		seen[k] = path
	}
	visitLeaves(t, reflect.ValueOf(&cfg).Elem(), "Config", check)
	visitLeaves(t, reflect.ValueOf(&prof).Elem(), "Profile", check)
	visitLeaves(t, reflect.ValueOf(&spec).Elem(), "Policy", check)
	if len(seen) < 50 {
		t.Errorf("only %d key inputs visited", len(seen)-1)
	}
	for _, steps := range []int{3, 5} {
		l, err := dvfs.NewLadder(cfg.Tech, steps, cfg.VMinFrac)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Ladder = l
		check(fmt.Sprintf("Config.Ladder (%d steps)", steps))
	}
	cfg.Ladder = nil
	insts++
	check("Instructions")
	insts--
	sources += "x"
	check("sources")
	sources = "src"
	k, err := runKey(sources, cfg, prof, insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, dup := seen[k]; dup {
		t.Error("a baseline has the key of a policy run")
	}

	cfg.Tracer = obs.NewJSONL(io.Discard)
	cfg.Profiler = obs.NewStageProfiler()
	if k := key(); k != base {
		t.Errorf("a Tracer or Profiler changed the key: %s, want %s", k, base)
	}
}

// TestNamedFactoriesKeyBySpec: the named factories take their cache
// identity from PolicyByName, and two factories shown under one name but
// built with different parameters key apart.
func TestNamedFactoriesKeyBySpec(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, tc := range []struct {
		f      PolicyFactory
		scheme string
		gate   float64
	}{
		{FGPolicy(cfg), "fg", 0},
		{DVSPolicy(cfg), "dvs", 0},
		{PIHybPolicy(cfg, true), "pi-hyb", CrossoverGateStall},
		{PIHybPolicy(cfg, false), "pi-hyb", CrossoverGateIdeal},
		{HybPolicy(cfg, true), "hyb", HybGateStall},
		{HybPolicy(cfg, false), "hyb", CrossoverGateIdeal},
		{LocalTogglingPolicy(cfg), "local", 0},
	} {
		c := cfg
		want, err := PolicyByName(&c, tc.scheme, tc.gate, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tc.f.spec, want.spec) {
			t.Errorf("%s: spec %+v, want PolicyByName's %+v", tc.f.Name, tc.f.spec, want.spec)
		}
	}

	prof, _ := trace.ByName("gzip")
	keyOf := func(f PolicyFactory) string {
		t.Helper()
		k, err := runKey("src", cfg, prof, 300_000, f.spec)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	stall, ideal := PIHybPolicy(cfg, true), PIHybPolicy(cfg, false)
	if stall.Name != ideal.Name {
		t.Fatalf("names %q and %q, want one display name", stall.Name, ideal.Name)
	}
	if keyOf(stall) == keyOf(ideal) {
		t.Errorf("%s at gates %g and %g share a key", stall.Name, stall.spec.Gate, ideal.spec.Gate)
	}
	// A factory's policy reads the config it was built from, not the
	// job's: a different trigger is a different spec.
	hot := cfg
	hot.Trigger++
	if keyOf(DVSPolicy(hot)) == keyOf(DVSPolicy(cfg)) {
		t.Error("DVS factories built at two triggers share a key")
	}
}

// cacheRun runs jobs on a fresh runner over the cache directory dir and
// returns the measurements and the runner's registry.
func cacheRun(t *testing.T, opts Options, dir string, jobs []Job) ([]Measurement, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opts.Metrics = reg
	opts.CacheDir = dir
	opts.Workers = 2
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := r.RunJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	return ms, reg
}

// TestWarmCacheSimulatesNothing runs a batch twice over one cache
// directory. The warm pass serves every run, baselines included, from the
// cache: it advances no core and commits no instruction, and its
// measurements equal the cold pass's.
func TestWarmCacheSimulatesNothing(t *testing.T) {
	opts := twoBenchOptions(t)
	jobs := planJobs(t, opts, func(p *Plan) {
		p.row(opts.Config, DVSPolicy(opts.Config))
		p.row(opts.Config, FGPolicy(opts.Config))
	})
	dir := t.TempDir()
	cold, reg := cacheRun(t, opts, dir, jobs)
	if got := reg.Counter(obs.MetricPoolCacheHits).Value(); got != 0 {
		t.Errorf("cold pass: %s = %d, want 0", obs.MetricPoolCacheHits, got)
	}
	if got := reg.Counter(obs.MetricPoolJobs).Value(); got != int64(len(jobs)) {
		t.Errorf("cold pass: %s = %d, want %d", obs.MetricPoolJobs, got, len(jobs))
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(jobs) + len(opts.Benchmarks); len(entries) != want {
		t.Errorf("cold pass stored %d entries, want %d (jobs and baselines)", len(entries), want)
	}

	warm, reg := cacheRun(t, opts, dir, jobs)
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("warm measurements differ from cold:\n%+v\n%+v", warm, cold)
	}
	for _, name := range []string{obs.MetricPoolJobs, obs.MetricPoolCoreSteps, obs.MetricInstructions, obs.MetricRuns} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Errorf("warm pass: %s = %d, want 0", name, got)
		}
	}
	if got, want := reg.Counter(obs.MetricPoolCacheHits).Value(), int64(len(jobs)+len(opts.Benchmarks)); got != want {
		t.Errorf("warm pass: %s = %d, want %d", obs.MetricPoolCacheHits, got, want)
	}

	// A baseline asked for on its own is served from the cache as well.
	reg = obs.NewRegistry()
	o := opts
	o.Metrics, o.CacheDir = reg, dir
	r, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.BaselineContext(context.Background(), opts.Benchmarks[0]); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.MetricInstructions).Value(); got != 0 {
		t.Errorf("cached baseline: %s = %d, want 0", obs.MetricInstructions, got)
	}
}

// TestUncachedRunsSimulate: a traced run, a profiled run and a job whose
// factory has no PolicyByName spec are simulated on every pass and never
// stored; only their baseline is.
func TestUncachedRunsSimulate(t *testing.T) {
	opts := tinyOptions(t)
	prof := opts.Benchmarks[0]
	traced, profiled := opts.Config, opts.Config
	var buf bytes.Buffer
	traced.Tracer = obs.NewJSONL(&buf)
	profiled.Profiler = obs.NewStageProfiler()
	closure := PolicyFactory{Name: "DVS", New: func() (dtm.Policy, error) { return DVSPolicy(opts.Config).New() }}
	jobs := []Job{
		{Config: traced, Profile: prof, Factory: DVSPolicy(opts.Config)},
		{Config: profiled, Profile: prof, Factory: DVSPolicy(opts.Config)},
		{Config: opts.Config, Profile: prof, Factory: closure},
	}
	dir := t.TempDir()
	cold, _ := cacheRun(t, opts, dir, jobs)
	coldTrace := buf.Len()
	warm, reg := cacheRun(t, opts, dir, jobs)
	if got := reg.Counter(obs.MetricPoolJobs).Value(); got != int64(len(jobs)) {
		t.Errorf("warm pass: %s = %d, want all %d jobs simulated", obs.MetricPoolJobs, got, len(jobs))
	}
	if got := reg.Counter(obs.MetricPoolCacheHits).Value(); got != 1 {
		t.Errorf("warm pass: %s = %d, want 1 (the baseline)", obs.MetricPoolCacheHits, got)
	}
	if buf.Len() != 2*coldTrace {
		t.Errorf("trace grew from %d to %d bytes, want the warm pass to trace as much again", coldTrace, buf.Len())
	}
	for i := range jobs {
		if warm[i].Result != cold[i].Result {
			t.Errorf("job %d: warm %+v, cold %+v", i, warm[i].Result, cold[i].Result)
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("stored %d entries, want 1 (the baseline)", len(entries))
	}
}
