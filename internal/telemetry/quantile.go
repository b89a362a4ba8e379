package telemetry

// QuantileSorted returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// slice by linear interpolation between closest ranks, without copying.
// Returns 0 for an empty slice. Callers aggregating many quantiles over one
// sample set sort once and call it per quantile.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	// Linear interpolation between closest ranks (the "R-7" estimate used by
	// numpy's default percentile).
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}
