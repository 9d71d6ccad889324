package main

import (
	"encoding/json"
	"os"
	"time"
)

// historyLine is one recorded run: where it ran, how often it repeated, and
// every metric's median with its range, per workload.
type historyLine struct {
	Time        string                        `json:"time"`
	Machine     machine                       `json:"machine"`
	Seed        uint64                        `json:"seed"`
	Repetitions int                           `json:"repetitions"`
	Workloads   map[string]map[string]summary `json:"workloads"`
}

// appendHistory adds one line to the trajectory. The file is opened
// append-only, so earlier lines are never rewritten.
func appendHistory(path string, m machine, seed uint64, reps int, results map[string]map[string]summary) error {
	line, err := json.Marshal(historyLine{
		Time: time.Now().UTC().Format(time.RFC3339), Machine: m, Seed: seed, Repetitions: reps, Workloads: results,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
