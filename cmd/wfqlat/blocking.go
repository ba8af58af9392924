package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"wfq/internal/harness"
)

// blockingOpts carries the -blocking flag set.
type blockingOpts struct {
	algs                 string
	producers, consumers int
	duration, interval   time.Duration
	burst                int
	jsonPath             string
}

// blockingAlgsDefault is the series measured when -algs still holds the
// per-op-latency default (those algorithms have no lifecycle layer).
const blockingAlgsDefault = "blocking WF,blocking sharded WF"

// blockingRow is one (algorithm, mode) cell of the JSON series.
type blockingRow struct {
	Algorithm string `json:"algorithm"`
	Mode      string `json:"mode"`
	Produced  int64  `json:"produced"`
	Delivered int64  `json:"delivered"`
	WallNs    int64  `json:"wall_ns"`
	CPUNs     int64  `json:"cpu_ns"`
	// ConsumerCPUNs is CPUNs minus the producers-only calibration run's
	// CPU — the consumers' own share.
	ConsumerCPUNs int64 `json:"consumer_cpu_ns"`
	Samples       int   `json:"samples"`
	P50Ns         int64 `json:"p50_ns"`
	P99Ns         int64 `json:"p99_ns"`
	MaxNs         int64 `json:"max_ns"`
}

type blockingReport struct {
	Producers int           `json:"producers"`
	Consumers int           `json:"consumers"`
	Duration  string        `json:"duration"`
	Interval  string        `json:"interval"`
	Burst     int           `json:"burst"`
	Rows      []blockingRow `json:"rows"`
	// SpinOverPark maps algorithm → consumer-CPU ratio spin/park — the
	// acceptance number (≥10 means parking saves ≥10× idle CPU).
	SpinOverPark map[string]float64 `json:"spin_over_park_consumer_cpu"`
}

func runBlocking(o blockingOpts) error {
	algNames := o.algs
	if algNames == "LF,base WF,opt WF (1+2)" {
		algNames = blockingAlgsDefault
	}
	cfg := harness.BlockingConfig{
		Producers: o.producers, Consumers: o.consumers,
		Duration: o.duration, Interval: o.interval, Burst: o.burst,
	}
	fmt.Printf("blocking workload: %d producers (burst %d / %v), %d consumers, %v\n\n",
		o.producers, o.burst, o.interval, o.consumers, o.duration)

	report := blockingReport{
		Producers: o.producers, Consumers: o.consumers,
		Duration: o.duration.String(), Interval: o.interval.String(), Burst: o.burst,
		SpinOverPark: map[string]float64{},
	}
	for _, name := range strings.Split(algNames, ",") {
		name = strings.TrimSpace(name)
		alg, err := harness.ByName(name)
		if err != nil {
			return err
		}
		base, err := harness.MeasureBlocking(alg, cfg, harness.BlockingProducersOnly)
		if err != nil {
			return err
		}
		var spinCPU, parkCPU time.Duration
		for _, mode := range []harness.BlockingMode{harness.BlockingSpin, harness.BlockingPark} {
			r, err := harness.MeasureBlocking(alg, cfg, mode)
			if err != nil {
				return err
			}
			consumerCPU := r.CPU - base.CPU
			if consumerCPU < 0 {
				consumerCPU = 0
			}
			switch mode {
			case harness.BlockingSpin:
				spinCPU = consumerCPU
			case harness.BlockingPark:
				parkCPU = consumerCPU
			}
			fmt.Printf("%v  consumerCPU=%v\n", r, consumerCPU)
			report.Rows = append(report.Rows, blockingRow{
				Algorithm: r.Algorithm, Mode: r.Mode.String(),
				Produced: r.Produced, Delivered: r.Delivered,
				WallNs: int64(r.Wall), CPUNs: int64(r.CPU),
				ConsumerCPUNs: int64(consumerCPU),
				Samples:       r.Samples,
				P50Ns:         int64(r.P50), P99Ns: int64(r.P99), MaxNs: int64(r.Max),
			})
		}
		// Floor the park-mode consumer CPU at the rusage granularity so
		// a "too idle to measure" park run yields a conservative lower
		// bound instead of a division by zero.
		floor := parkCPU
		if floor < time.Millisecond {
			floor = time.Millisecond
		}
		ratio := float64(spinCPU) / float64(floor)
		report.SpinOverPark[name] = ratio
		fmt.Printf("%-20s consumer CPU spin/park ratio: %.1f×\n\n", name, ratio)
	}

	if o.jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(o.jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.jsonPath)
	}
	return nil
}
