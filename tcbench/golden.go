package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"

	"tcsim"
)

// golden is the correctness record every run is checked against. It was
// recorded once with -record; the simulator is deterministic, so a
// speed-only change must reproduce it exactly.
type golden struct {
	ExactInsts   uint64                   `json:"exact_insts"`
	Exact        map[string]exactGolden   `json:"exact"`
	SampledInsts uint64                   `json:"sampled_insts"`
	Sampled      map[string]sampledGolden `json:"sampled"` // "<program>/<warm|seek>"
	SvcInsts     uint64                   `json:"svc_insts"`
	SvcSampled   uint64                   `json:"svc_sampled_insts"`
	Service      map[string]string        `json:"service"` // canonical job key -> result digest
}

type exactGolden struct {
	Cycles    uint64           `json:"cycles"`
	Retired   uint64           `json:"retired"`
	IPC       float64          `json:"ipc"`
	Passes    []tcsim.PassStat `json:"passes"`
	OutputSHA string           `json:"output_sha"`
}

type sampledGolden struct {
	IPC     float64 `json:"ipc"`
	CILow   float64 `json:"ci_low"`
	CIHigh  float64 `json:"ci_high"`
	Windows int     `json:"windows"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (*golden, error) { return parseGolden(goldenJSON) }

func parseGolden(b []byte) (*golden, error) {
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden record: %w", err)
	}
	if g.ExactInsts != exactInsts || g.SampledInsts != sampledInsts || g.SvcInsts != svcInsts || g.SvcSampled != svcSampledInsts {
		return nil, fmt.Errorf("golden record budgets (%d/%d/%d/%d) do not match the benchmark's (%d/%d/%d/%d); re-record it",
			g.ExactInsts, g.SampledInsts, g.SvcInsts, g.SvcSampled, exactInsts, sampledInsts, svcInsts, svcSampledInsts)
	}
	return &g, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

func exactRecord(res tcsim.Result) exactGolden {
	return exactGolden{
		Cycles: res.Cycles, Retired: res.Retired, IPC: res.IPC,
		Passes: res.PassStats, OutputSHA: sha(res.Output),
	}
}

func sampledRecord(res tcsim.Result) sampledGolden {
	s := res.Sampled
	if s == nil {
		return sampledGolden{}
	}
	return sampledGolden{IPC: s.IPC, CILow: s.CILow, CIHigh: s.CIHigh, Windows: s.Windows}
}

// resultDigest digests everything a served result carries.
func resultDigest(res *tcsim.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return sha(b)
}

func (g *golden) checkExact(program string, res tcsim.Result) error {
	want, ok := g.Exact[program]
	if !ok {
		return fmt.Errorf("exact %s: no golden record", program)
	}
	if got := exactRecord(res); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("exact %s: result %+v differs from golden %+v", program, got, want)
	}
	return nil
}

func (g *golden) checkSampled(key string, res tcsim.Result) error {
	want, ok := g.Sampled[key]
	if !ok {
		return fmt.Errorf("sampled %s: no golden record", key)
	}
	if got := sampledRecord(res); got != want {
		return fmt.Errorf("sampled %s: result %+v differs from golden %+v", key, got, want)
	}
	return nil
}

func (g *golden) checkService(jobKey string, res *tcsim.Result) error {
	want, ok := g.Service[jobKey]
	if !ok {
		return fmt.Errorf("service job %s: no golden record", jobKey)
	}
	if res == nil {
		return fmt.Errorf("service job %s: no result", jobKey)
	}
	if got := resultDigest(res); got != want {
		return fmt.Errorf("service job %s: result digest %s differs from golden %s", jobKey, got, want)
	}
	return nil
}

// recordGolden runs every checked operation of every workload once and
// writes the golden record to path.
func recordGolden(ctx context.Context, path string, log io.Writer) error {
	g := &golden{
		ExactInsts: exactInsts, SampledInsts: sampledInsts, SvcInsts: svcInsts, SvcSampled: svcSampledInsts,
		Exact: map[string]exactGolden{}, Sampled: map[string]sampledGolden{},
	}
	st := tcsim.NewTraceStore(0)
	for _, w := range tcsim.Workloads() {
		res, err := tcsim.RunWorkloadContextIn(ctx, exactConfig(), w, st)
		if err != nil {
			return err
		}
		g.Exact[w] = exactRecord(res)
	}
	fmt.Fprintln(log, "recorded exact-sweep")
	for _, w := range sampledPrograms {
		for _, seek := range []bool{false, true} {
			res, err := tcsim.RunWorkloadContextIn(ctx, sampledConfig(seek), w, tcsim.NewTraceStore(0))
			if err != nil {
				return err
			}
			g.Sampled[sampledKey(w, seek)] = sampledRecord(res)
		}
	}
	fmt.Fprintln(log, "recorded sampled-long")
	svc, err := recordService(ctx, log)
	if err != nil {
		return err
	}
	g.Service = svc
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
