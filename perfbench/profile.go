package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// layers are the attribution buckets, named after the repository's
// modules, in report order. "gc" is the Go runtime's collector and
// allocator; "other" (not listed) takes CPU no layer claims.
var layers = []string{"sim", "phys", "mac", "ctrl", "aodv", "energy", "mobility", "traffic", "stats", "scenario", "runner", "serve", "gc"}

// pkgLayer maps an internal package to its layer. Packages not listed
// (node, packet, geom, obs, ...) are helpers, like the standard
// library: their time is charged to the nearest calling layer.
var pkgLayer = map[string]string{
	"sim": "sim", "phys": "phys", "mac": "mac", "ctrl": "ctrl", "power": "ctrl",
	"aodv": "aodv", "energy": "energy", "mobility": "mobility", "traffic": "traffic",
	"stats": "stats", "scenario": "scenario", "runner": "runner", "serve": "serve",
}

// gcFrames mark a sample as collector or allocator work wherever they
// sit on its stack.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.wbBufFlush", "runtime.gcWriteBarrier", "runtime.(*mheap)", "runtime.(*mcache)",
	"runtime.(*mcentral)", "runtime.growslice", "runtime.newobject", "runtime.makeslice", "runtime.makemap",
}

// cpuProfile is a CPU profile running into a file until stop.
type cpuProfile struct {
	f *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return &cpuProfile{f: f}, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// layerTime accumulates sampled CPU time per layer.
type layerTime map[string]time.Duration

// fold adds the samples of the CPU profiles at paths, merged and read
// through `go tool pprof -traces`. Each sample goes to gc when a collector or
// allocator frame is on its stack, otherwise to the innermost frame
// that belongs to a layer, otherwise to "other".
func (lt layerTime) fold(paths []string, tmpDir string) error {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+tmpDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var (
		value  time.Duration
		frames []string
		inBody bool
	)
	flush := func() {
		if value > 0 {
			lt[classify(frames)] += value
		}
		value, frames = 0, frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 && value == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return fmt.Errorf("pprof -traces: unexpected sample line %q", line)
			}
			value = d
			fields = fields[1:]
		}
		if len(fields) > 0 {
			frames = append(frames, fields[0])
		}
	}
	flush()
	return sc.Err()
}

func classify(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if l, ok := pkgLayer[internalPkg(f)]; ok {
			return l
		}
	}
	return "other"
}

// internalPkg returns the internal package a function belongs to, as
// in "repro/internal/sim.(*Scheduler).Run" -> "sim", or "".
func internalPkg(fn string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// addShares records every layer's share of the sampled CPU time as
// <layer>.self_frac plus other.self_frac; together they sum to 1.
func (b *bench) addShares(lt layerTime) error {
	var total time.Duration
	for _, d := range lt {
		total += d
	}
	if total == 0 {
		return fmt.Errorf("the CPU profile holds no samples")
	}
	for _, l := range append(append([]string(nil), layers...), "other") {
		b.addValue(l+".self_frac", "fraction", float64(lt[l])/float64(total))
	}
	b.addValue("profile.samples_s", "s", total.Seconds())
	return nil
}
