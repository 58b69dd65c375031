package main

// A stdlib-only reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto), and the fold that turns one into per-layer host time.
// Only the fields the fold needs are decoded: samples (location IDs and
// values), locations (their inlined line stacks), functions and the
// string table.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// cpuProfile is a decoded CPU profile: one entry per sample, each a stack
// of function names, leaf first, with inlined frames expanded.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	frames []string // leaf first
	nanos  int64
}

// protoField is one decoded protobuf field: a varint (or fixed-width
// number) in num, or a length-delimited payload in buf.
type protoField struct {
	tag  int
	num  uint64
	buf  []byte
	wire int
}

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("profile: bad varint")
}

// forFields calls fn for every field of one protobuf message.
func forFields(b []byte, fn func(f protoField) error) error {
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := protoField{tag: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.num, n, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			for i := 7; i >= 0; i-- {
				f.num = f.num<<8 | uint64(b[i])
			}
			n = 8
		case 2:
			l, m, err := readVarint(b)
			if err != nil {
				return err
			}
			if uint64(len(b)-m) < l {
				return errors.New("profile: truncated field")
			}
			f.buf, n = b[m:m+int(l)], m+int(l)
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			f.num, n = uint64(b[0])|uint64(b[1])<<8|uint64(b[2])<<16|uint64(b[3])<<24, 4
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		b = b[n:]
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// numbers appends a repeated integer field, packed or not.
func numbers(f protoField, dst []uint64) ([]uint64, error) {
	if f.wire != 2 {
		return append(dst, f.num), nil
	}
	for b := f.buf; len(b) > 0; {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes a (possibly gzipped) CPU profile. The sample
// value used is the last one, which for runtime/pprof CPU profiles is
// cpu nanoseconds.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		funcNames = map[uint64]uint64{}   // function ID -> string index
		strs      []string
	)
	err := forFields(data, func(f protoField) error {
		switch f.tag {
		case 2: // sample
			var s rawSample
			err := forFields(f.buf, func(g protoField) error {
				var err error
				switch g.tag {
				case 1:
					s.locs, err = numbers(g, s.locs)
				case 2:
					s.vals, err = numbers(g, s.vals)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(f.buf, func(g protoField) error {
				switch g.tag {
				case 1:
					id = g.num
				case 4: // line
					return forFields(g.buf, func(h protoField) error {
						if h.tag == 1 {
							fns = append(fns, h.num)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := forFields(f.buf, func(g protoField) error {
				switch g.tag {
				case 1:
					id = g.num
				case 2:
					name = g.num
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.buf))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := profSample{nanos: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				name := "?"
				if si := funcNames[fid]; si < uint64(len(strs)) {
					name = strs[si]
				}
				ps.frames = append(ps.frames, name)
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

const (
	pkgPrefix = "tcsim/internal/"
	stepFunc  = pkgPrefix + "pipeline.(*Simulator).Step"
	emuStep   = pkgPrefix + "emu.(*Machine).Step"
	ffwd      = pkgPrefix + "pipeline.(*Simulator).FastForward"
)

// sourceFuncs serve the correct-path stream to the pipeline from the
// trace store: a captured trace's replay cursor or a checkpoint log's
// restored emulator.
var sourceFuncs = []string{
	pkgPrefix + "tracestore.(*Replay).At",
	pkgPrefix + "tracestore.(*Replay).Release",
	pkgPrefix + "tracestore.(*CkptSource).At",
	pkgPrefix + "tracestore.(*CkptSource).Release",
}

// seekFuncs reposition a trace-store source.
var seekFuncs = []string{
	pkgPrefix + "tracestore.(*Replay).Seek",
	pkgPrefix + "tracestore.(*CkptSource).Seek",
}

// stepStages maps each direct callee of Simulator.Step to the pipeline
// stage it implements. Step's body calls exactly these; anything else
// landing directly under Step is its own code or a runtime helper.
var stepStages = map[string]string{
	pkgPrefix + "pipeline.(*Simulator).resolveBranches": "pipeline.resolve",
	pkgPrefix + "pipeline.(*Simulator).retire":          "pipeline.retire",
	pkgPrefix + "exec.(*Engine).Cycle":                  "exec.cycle",
	pkgPrefix + "pipeline.(*Simulator).tryIssue":        "pipeline.issue",
	pkgPrefix + "pipeline.(*Simulator).fetchCycle":      "pipeline.fetch",
	pkgPrefix + "pipeline.(*Simulator).drainFill":       "pipeline.fill_drain",
	pkgPrefix + "exec.(*Engine).PruneRecycle":           "pipeline.prune",
	pkgPrefix + "exec.(*Pool).Reclaim":                  "pipeline.prune",
	pkgPrefix + "exec.(*Engine).Len":                    "pipeline.prune",
	pkgPrefix + "exec.(*Engine).At":                     "pipeline.prune",
}

// stageNames are stepStages' stages, in Step's call order.
var stageNames = []string{
	"pipeline.resolve", "pipeline.retire", "exec.cycle", "pipeline.issue",
	"pipeline.fetch", "pipeline.fill_drain", "pipeline.prune",
}

// stageTolerance is how much of Step's time may fall outside the named
// stages (Step's own loop code) before the fold is declared broken, e.g.
// because a callee was renamed and the stage table no longer matches.
const stageTolerance = 0.05

// apiPackages are the packages whose exported-entry time is reported.
var apiPackages = []string{"core", "trace", "bpred", "cache", "rename"}

// profileFold is a CPU profile reduced to the figures the per-layer
// metrics need, all in host nanoseconds.
type profileFold struct {
	step   int64            // cumulative under Simulator.Step
	stages map[string]int64 // Step callee stage -> time under it
	pkgAPI map[string]int64 // package -> time under its exported funcs called from another package
	prof   *cpuProfile
}

// splitFunc splits "path/pkg.(*T).Method.func1" into the package's last
// path element ("pkg") and the outermost identifier ("Method", or the
// function name for plain functions).
func splitFunc(name string) (pkg, ident string) {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return "", name
	}
	pkg = name[slash+1 : slash+1+dot]
	rest := name[slash+1+dot+1:]
	if strings.HasPrefix(rest, "(") {
		if i := strings.Index(rest, ")."); i >= 0 {
			rest = rest[i+2:]
		}
	}
	if i := strings.IndexAny(rest, ".["); i >= 0 {
		rest = rest[:i]
	}
	return pkg, rest
}

func internalPkg(name string) (string, bool) {
	if !strings.HasPrefix(name, pkgPrefix) {
		return "", false
	}
	pkg, _ := splitFunc(name)
	return pkg, true
}

func exported(ident string) bool {
	return ident != "" && ident[0] >= 'A' && ident[0] <= 'Z'
}

// fold attributes every sample to the layers it passed through.
func (p *cpuProfile) fold() *profileFold {
	f := &profileFold{
		stages: map[string]int64{},
		pkgAPI: map[string]int64{},
		prof:   p,
	}
	counted := map[string]bool{}
	for _, s := range p.samples {
		clear(counted)
		// Walk root to leaf.
		for i := len(s.frames) - 1; i >= 0; i-- {
			fn := s.frames[i]
			if fn == stepFunc {
				f.step += s.nanos
				if i > 0 {
					if st, ok := stepStages[s.frames[i-1]]; ok {
						f.stages[st] += s.nanos
					}
				}
			}
			pkg, ok := internalPkg(fn)
			if !ok || counted[pkg] {
				continue
			}
			if _, ident := splitFunc(fn); !exported(ident) {
				continue
			}
			if i < len(s.frames)-1 {
				if caller, ok := internalPkg(s.frames[i+1]); ok && caller == pkg {
					continue
				}
			}
			counted[pkg] = true
			f.pkgAPI[pkg] += s.nanos
		}
	}
	return f
}

// checkStages verifies that the named Step stages account for Step's
// time within stageTolerance.
func (f *profileFold) checkStages() error {
	if f.step == 0 {
		return nil
	}
	var sum int64
	for _, v := range f.stages {
		sum += v
	}
	if miss := float64(f.step-sum) / float64(f.step); miss > stageTolerance {
		return fmt.Errorf("profile fold: Step stages cover %.1f%% of Step's %.3fs (want >= %.0f%%)",
			100*float64(sum)/float64(f.step), float64(f.step)/1e9, 100*(1-stageTolerance))
	}
	return nil
}

// under is the time of every sample whose stack passes through at least
// one of the named functions (full names, counted once per sample).
func (f *profileFold) under(names ...string) int64 {
	var t int64
	for _, s := range f.prof.samples {
		for _, fn := range s.frames {
			if slices.Contains(names, fn) {
				t += s.nanos
				break
			}
		}
	}
	return t
}
