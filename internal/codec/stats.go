// Package-wide codec ledgers: records and wire bytes encoded and
// decoded, broken down by record kind. The cells are plain padded
// atomics owned by this package — hot encode paths (snapshot
// AppendTo is //memento:noalloc) pay two atomic adds, nothing more —
// and RegisterMetrics exposes them in an obs.Registry at scrape
// time.
//
// Accounting convention: every top-level record encoder/decoder
// accounts the full record under its own kind, including embedded
// content. Containers overlap with their members — a KindHHHDelta
// base embeds a KindHHH record and both ledgers see their full
// spans, so summing bytes across kinds double-counts envelopes.
// Per-kind series are individually exact.

package codec

import "memento/internal/obs"

// kindNames maps record kinds to the stable metric name components
// used by RegisterMetrics. Index 0 collects out-of-range kinds; the
// retired kinds' slots stay empty and register nothing.
var kindNames = [...]string{
	KindHHH:         "hhh",
	KindHHHDelta:    "hhh_delta",
	KindHHHDeltaSet: "hhh_delta_set",
}

var (
	encRecords [len(kindNames)]obs.Counter
	encBytes   [len(kindNames)]obs.Counter
	decRecords [len(kindNames)]obs.Counter
	decBytes   [len(kindNames)]obs.Counter
)

// AccountEncode records one encoded record of the given kind and its
// wire bytes in the package ledger.
//
//memento:noalloc
func AccountEncode(kind uint8, bytes int) {
	if int(kind) >= len(kindNames) {
		kind = 0
	}
	encRecords[kind].Inc()
	encBytes[kind].Add(uint64(bytes))
}

// AccountDecode records one successfully decoded record of the given
// kind and its wire bytes in the package ledger.
//
//memento:noalloc
func AccountDecode(kind uint8, bytes int) {
	if int(kind) >= len(kindNames) {
		kind = 0
	}
	decRecords[kind].Inc()
	decBytes[kind].Add(uint64(bytes))
}

// RegisterMetrics exposes the package ledgers in r as
// memento_codec_{encoded,decoded}_{records,bytes}_<kind>_total.
// The ledgers are process-wide (they outlive any registry); nil r is
// a no-op.
func RegisterMetrics(r *obs.Registry) {
	for kind, name := range kindNames {
		if name == "" {
			continue
		}
		r.RegisterCounter("memento_codec_encoded_records_"+name+"_total", &encRecords[kind])
		r.RegisterCounter("memento_codec_encoded_bytes_"+name+"_total", &encBytes[kind])
		r.RegisterCounter("memento_codec_decoded_records_"+name+"_total", &decRecords[kind])
		r.RegisterCounter("memento_codec_decoded_bytes_"+name+"_total", &decBytes[kind])
	}
}
