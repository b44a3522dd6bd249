package exec

import (
	"github.com/ddgms/ddgms/internal/obs"
)

// Kernel metric families. Everything is recorded per invocation (one
// counter add covering the whole row range, one histogram observation
// per phase), never per row — the hot loops stay untouched, which is
// what keeps the instrumented kernel within the observability layer's
// overhead budget.
var (
	metricRowsScanned = obs.Default().Counter(
		"ddgms_exec_rows_scanned_total",
		"Rows offered to the group-by kernel (before filtering).")
	metricGroups = obs.Default().Counter(
		"ddgms_exec_groups_total",
		"Groups produced by kernel invocations.")
	metricInvocations = obs.Default().CounterVec(
		"ddgms_exec_kernel_invocations_total",
		"Group-by kernel invocations by accumulation path.",
		"path")
	metricWorkers = obs.Default().Histogram(
		"ddgms_exec_kernel_workers",
		"Worker fan-out per vectorized kernel invocation.",
		obs.CountBuckets)
	metricMergeSeconds = obs.Default().Histogram(
		"ddgms_exec_merge_seconds",
		"Time merging per-worker partial aggregates.",
		nil)
	metricDictLookups = obs.Default().CounterVec(
		"ddgms_exec_dict_cache_total",
		"Dictionary-encoded column cache lookups by layer and result.",
		"layer", "result")

	invokeDense  = metricInvocations.WithLabelValues("dense")
	invokeHashed = metricInvocations.WithLabelValues("hashed")
	invokeWide   = metricInvocations.WithLabelValues("wide")
)

// DictLookupCounters returns the (hit, miss) counters of the dictionary
// cache family for one layer ("storage", "cube", ...). Layers resolve
// the pair once at init and pay a single atomic per lookup.
func DictLookupCounters(layer string) (hit, miss *obs.Counter) {
	return metricDictLookups.WithLabelValues(layer, "hit"),
		metricDictLookups.WithLabelValues(layer, "miss")
}
