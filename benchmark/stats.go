package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/ddgms/ddgms/internal/obs"
)

// percentile is the nearest-rank percentile of xs (which it sorts).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[max(rank, 0)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// trimmedMean is the mean of xs (which it sorts) without its largest
// share `drop`: every operation counts, one stalled run of them does not.
func trimmedMean(xs []float64, drop float64) float64 {
	sort.Float64s(xs)
	xs = xs[:len(xs)-int(drop*float64(len(xs)))]
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sliceRates turns completion offsets into one rate per whole slice of
// the window, so that a closed-loop throughput can be reported as the
// median slice: one garbage collection or scheduler hiccup then moves a
// single slice, not the metric.
func sliceRates(done []time.Duration, window, slice time.Duration) []float64 {
	counts := make([]float64, int(window/slice))
	for _, d := range done {
		if i := int(d / slice); i < len(counts) {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= slice.Seconds()
	}
	return counts
}

// promSnapshot is one reading of the process-wide metrics registry, keyed
// by series (`name` or `name{label="v"}`), taken from the same text
// exposition GET /metrics serves.
type promSnapshot map[string]float64

func scrape() (promSnapshot, error) {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	snap := promSnapshot{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			snap[line[:i]] = v
		}
	}
	return snap, sc.Err()
}

// family sums every series of one metric family, whatever its labels.
func (s promSnapshot) family(name string) float64 {
	var sum float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// where sums the series of one family whose label set contains label,
// written as it is exposed: `result="hit"`.
func (s promSnapshot) where(name, label string) float64 {
	var sum float64
	for k, v := range s {
		if strings.HasPrefix(k, name+"{") && strings.Contains(k, label) {
			sum += v
		}
	}
	return sum
}

// since returns s − earlier, series by series.
func (s promSnapshot) since(earlier promSnapshot) promSnapshot {
	d := promSnapshot{}
	for k, v := range s {
		d[k] = v - earlier[k]
	}
	return d
}

// ratio is a/b, or 0 when the layer did no work in the window.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, _ := strings.Cut(string(data), "VmHWM:")
	var kb float64
	_, _ = fmt.Sscanf(rest, "%f kB", &kb) // a status file without the line reads as 0
	return kb / 1024
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var total float64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += float64(info.Size())
			}
		}
		return nil // an entry that vanished mid-walk is not counted
	})
	return total
}
