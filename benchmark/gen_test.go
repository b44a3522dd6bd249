package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/discri"
)

// emit writes everything a generator decides for the `mixed` workload:
// arrival times, request bodies and attendance rows.
func emit(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := discri.DefaultConfig()
	cfg.Patients = 50
	raw, err := discri.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var w workload
	for _, w = range workloads() {
		if w.name == "mixed" {
			break
		}
	}
	g := newGenerator(seed)
	var out bytes.Buffer
	due := g.poisson(w.readRate, 2*time.Second)
	for i, r := range g.pick(w.mix, len(due)) {
		fmt.Fprintf(&out, "%d %s %s\n", due[i], r.path, r.body)
	}
	fmt.Fprintln(&out, g.even(w.txRate, 2*time.Second))
	for _, row := range g.visits(raw, 20) {
		fmt.Fprintln(&out, row)
	}
	return out.Bytes()
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b, c := emit(t, 7), emit(t, 7), emit(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("two generators with one seed emitted different requests or rows")
	}
	if bytes.Equal(a, c) {
		t.Error("generators with different seeds emitted the same requests and rows")
	}
}
