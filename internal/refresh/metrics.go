package refresh

import "github.com/ddgms/ddgms/internal/obs"

// Change-feed metric families: what the maintainer read from the WAL.
// Gaps count forced resyncs (each one is a full warehouse rebuild, so
// any nonzero rate under steady state means retention is misconfigured).
var (
	metricFeedEvents = obs.Default().Counter(
		"ddgms_cdc_events_total",
		"Row change events consumed from the WAL.")
	metricFeedTxs = obs.Default().Counter(
		"ddgms_cdc_transactions_total",
		"Committed transactions consumed from the WAL.")
	metricFeedBatches = obs.Default().Counter(
		"ddgms_cdc_batches_total",
		"Non-empty batches read from the WAL.")
	metricGaps = obs.Default().Counter(
		"ddgms_cdc_gaps_total",
		"Tail gaps hit (position behind checkpoint truncation; forces resync).")
)

// Refresh metric families. Together with ddgms_cdc_* (feed volume) and
// ddgms_cube_delta_entries_total (cuboids merged vs rescanned) they
// cover the follow path end to end.
var (
	metricBatches = obs.Default().Counter(
		"ddgms_refresh_batches_total",
		"CDC batches applied to the warehouse.")
	metricTxApplied = obs.Default().Counter(
		"ddgms_refresh_transactions_applied_total",
		"Committed transactions folded into the warehouse.")
	metricRowsAppended = obs.Default().Counter(
		"ddgms_refresh_rows_appended_total",
		"Fact rows appended by incremental refresh.")
	metricRowsTombstoned = obs.Default().Counter(
		"ddgms_refresh_rows_tombstoned_total",
		"Fact rows tombstoned by incremental refresh.")
	metricBatchSeconds = obs.Default().Histogram(
		"ddgms_refresh_batch_seconds",
		"End-to-end latency per applied refresh batch.",
		nil)
	metricLag = obs.Default().Gauge(
		"ddgms_refresh_lag_transactions",
		"Committed transactions not yet applied to the warehouse.")
	metricCompactions = obs.Default().Counter(
		"ddgms_refresh_compactions_total",
		"Full rebuilds triggered by tombstone accumulation.")
	metricResyncs = obs.Default().Counter(
		"ddgms_refresh_resyncs_total",
		"Full snapshot resyncs (tail gaps or failed applies).")
)
