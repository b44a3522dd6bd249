package storage

import "github.com/ddgms/ddgms/internal/obs"

// metricColumnBytes tracks the resident code-vector bytes of the
// dictionary-coded columns held in dictionary caches: 4 bytes per row,
// added when Dict() builds a column's coded view and subtracted when the
// next mutation drops it.
var metricColumnBytes = obs.Default().Gauge(
	"ddgms_storage_column_bytes",
	"Resident code-vector bytes of dictionary-coded columns.")
