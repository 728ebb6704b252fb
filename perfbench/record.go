package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// digestTable holds the expected output digest of each workload per
// seed, at the horizon the digests were recorded for.
type digestTable map[string]workloadDigests

type workloadDigests struct {
	HorizonS float64          `json:"horizon_s"`
	Seeds    map[int64]string `json:"seeds"`
}

func loadDigests(path string) (digestTable, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return digestTable{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading digests: %w", err)
	}
	var t digestTable
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return t, nil
}

// lookup returns the recorded digest, or "" when none was recorded for
// this seed at this horizon.
func (t digestTable) lookup(workload string, seed int64, horizonS float64) string {
	wd, ok := t[workload]
	if !ok || wd.HorizonS != horizonS {
		return ""
	}
	return wd.Seeds[seed]
}

// recordDigests computes the digest of every workload for each seed of
// cfg.record ("lo-hi") with one untimed repetition and merges them into
// the table at cfg.digests. A workload whose horizon changed starts a
// fresh seed map.
func recordDigests(cfg config, log io.Writer) error {
	lo, hi, ok := strings.Cut(cfg.record, "-")
	if !ok {
		hi = lo
	}
	from, err1 := strconv.ParseInt(lo, 10, 64)
	to, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || to < from {
		return fmt.Errorf("bad seed range %q", cfg.record)
	}
	t, err := loadDigests(cfg.digests)
	if err != nil {
		return err
	}
	names := workloadNames()
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	for _, name := range names {
		w := workloads[name]
		h := horizonOf(cfg, w)
		wd := t[name]
		if wd.HorizonS != h || wd.Seeds == nil {
			wd = workloadDigests{HorizonS: h, Seeds: map[int64]string{}}
		}
		for seed := from; seed <= to; seed++ {
			c := cfg
			c.workload, c.seed = name, seed
			b := &bench{cfg: c, w: w, spans: newSpanLog(fmt.Sprintf("record-%s-%d", name, seed)), check: &checker{}}
			if err := os.MkdirAll(b.workDir(), 0o755); err != nil {
				return err
			}
			t0 := time.Now()
			d, err := w.digest(b)
			os.RemoveAll(b.workDir())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			wd.Seeds[seed] = d
			fmt.Fprintf(log, "%s seed %d: %s (%.1fs)\n", name, seed, short(d), time.Since(t0).Seconds())
		}
		t[name] = wd
	}
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.digests, append(b, '\n'), 0o644)
}

// env is the environment stamp recorded with every result.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
	// SourceSHA256 hashes the module's Go sources and go.mod, naming
	// the code measured where no git metadata is available.
	SourceSHA256 string `json:"source_sha256"`
}

func stampEnv(root string) env {
	return env{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		GitCommit:    gitCommit(root),
		SourceSHA256: sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the checked-out commit, or says why it cannot.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unavailable (not a git checkout)"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unavailable (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every .go file under internal/ and
// cmd/, in path order.
func sourceDigest(root string) string {
	paths := []string{filepath.Join(root, "go.mod")}
	for _, dir := range []string{"internal", "cmd"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unavailable"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
