package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"
)

// ReadAzureInvocationsCSV parses the Microsoft Azure Functions trace format
// (Shahrad et al., ATC '20; the dataset the paper's §8.1 evaluation uses):
// one row per function with per-minute invocation counts,
//
//	HashOwner,HashApp,HashFunction,Trigger,1,2,...,1440
//
// and expands it into an arrival trace. Functions are named by their
// HashFunction column (prefixed with the app hash when present, so two apps'
// identically hashed functions stay distinct). Counts within a minute are
// spread evenly across it, which preserves every per-minute statistic the
// characterization reports while staying deterministic.
//
// This repository ships a synthetic Azure-like generator (AzureLike) because
// the production trace is proprietary; whoever has the dataset feeds it in
// here and replays it unchanged.
//
// Expansion is bounded by DefaultAzureRequestLimit; a file expanding past it
// is an error, never an OOM. Use ReadAzureInvocationsCSVLimit to raise it.
func ReadAzureInvocationsCSV(r io.Reader) (*Trace, error) {
	return ReadAzureInvocationsCSVLimit(r, DefaultAzureRequestLimit)
}

// DefaultAzureRequestLimit bounds how many arrivals ReadAzureInvocationsCSV
// will expand a file into before giving up: a day of the published Azure
// dataset stays well under it, while a corrupt count cell (the format stores
// plain integers, so a single damaged digit can claim billions of
// invocations in one minute) fails fast instead of exhausting memory.
const DefaultAzureRequestLimit = 50_000_000

// ReadAzureInvocationsCSVLimit is ReadAzureInvocationsCSV with an explicit
// bound on the total expanded request count (≤ 0 means the default).
func ReadAzureInvocationsCSVLimit(r io.Reader, maxRequests int) (*Trace, error) {
	if maxRequests <= 0 {
		maxRequests = DefaultAzureRequestLimit
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: reading azure trace header: %w", err)
	}
	if len(header) < 5 || header[0] != "HashOwner" || header[2] != "HashFunction" {
		return nil, fmt.Errorf("workload: not an Azure invocations CSV (header %v...)", header[:min(4, len(header))])
	}
	minutes := len(header) - 4

	t := &Trace{Duration: time.Duration(minutes) * time.Minute}
	row := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: azure trace row %d: %w", row, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("workload: azure trace row %d has %d fields, want %d", row, len(rec), len(header))
		}
		fn := rec[1] + "/" + rec[2]
		for m := 0; m < minutes; m++ {
			n, err := strconv.Atoi(rec[4+m])
			if err != nil {
				return nil, fmt.Errorf("workload: azure trace row %d minute %d: %w", row, m+1, err)
			}
			if n < 0 {
				return nil, fmt.Errorf("workload: azure trace row %d minute %d: negative count", row, m+1)
			}
			// Check the budget before expanding: the count cell alone can
			// demand gigabytes of requests, so the cap must not wait for the
			// append loop to get there.
			if n > maxRequests-len(t.Requests) {
				return nil, fmt.Errorf("workload: azure trace row %d minute %d: expansion exceeds %d requests", row, m+1, maxRequests)
			}
			base := time.Duration(m) * time.Minute
			for i := 0; i < n; i++ {
				// Evenly spaced within the minute: (i + ½)/n of the way in.
				off := time.Duration((float64(i) + 0.5) / float64(n) * float64(time.Minute))
				t.Requests = append(t.Requests, Request{Function: fn, At: base + off})
			}
		}
		row++
	}
	slices.SortFunc(t.Requests, byArrival)
	return t, nil
}
