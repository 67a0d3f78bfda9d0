package storage

import (
	"fmt"

	"vita/internal/colstore"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// This file bridges the two on-disk encodings — the CSV codecs of this
// package and the columnar VTB format of internal/colstore — behind
// format-agnostic entry points. Detection is by magic bytes, not extension,
// so existing CSV workflows keep working whatever the files are named.

// Format identifies an on-disk dataset encoding.
type Format string

const (
	// FormatCSV is the textual record format of the paper (§4.2), quantized
	// to 4 decimal places.
	FormatCSV Format = "csv"
	// FormatVTB is the block-compressed columnar binary format of
	// internal/colstore: lossless and zone-map indexed.
	FormatVTB Format = "vtb"
)

// Ext returns the conventional file extension for the format.
func (f Format) Ext() string { return "." + string(f) }

// ParseFormat validates a user-supplied format name.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatCSV, FormatVTB:
		return Format(s), nil
	default:
		return "", fmt.Errorf("storage: unknown format %q (want %q or %q)", s, FormatCSV, FormatVTB)
	}
}

// DetectFormat sniffs the file's magic bytes: VTB files are recognized by
// their header, anything else is assumed CSV.
func DetectFormat(path string) (Format, error) {
	_, isVTB, err := colstore.Sniff(path)
	if err != nil {
		return "", err
	}
	if isVTB {
		return FormatVTB, nil
	}
	return FormatCSV, nil
}

// RowWriter is the write half shared by every row encoder — the CSV writers
// of this package, the VTB writers of internal/colstore, a seglog writer.
type RowWriter[T any] interface {
	Write(T) error
	Close() error
}

// Each drains cur, handing every row to emit in order, and closes it.
func Each[T any, B colstore.RowBatch[T]](cur Cursor[B], emit func(T)) (colstore.ScanStats, error) {
	for cur.Next() {
		b := cur.Batch()
		for i := 0; i < b.Len(); i++ {
			emit(b.Row(i))
		}
	}
	stats := cur.Stats()
	return stats, cur.Close()
}

// Copy streams every row of cur into w and closes both, returning how many
// rows w accepted and the first error from either side. It stops at that
// error: once a Write fails, no further batch is pulled from cur.
func Copy[T any, B colstore.RowBatch[T]](cur Cursor[B], w RowWriter[T]) (rows int, err error) {
	for err == nil && cur.Next() {
		b := cur.Batch()
		for i := 0; i < b.Len() && err == nil; i++ {
			if err = w.Write(b.Row(i)); err == nil {
				rows++
			}
		}
	}
	if cerr := cur.Close(); err == nil {
		err = cerr
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return rows, err
}

// scanFile is the row-callback drain of OpenCursor.
func scanFile[T any, B colstore.RowBatch[T]](k *Kind[B], path string, pred colstore.Predicate, emit func(T)) (colstore.ScanStats, Format, error) {
	cur, format, err := OpenCursor(k, path, pred, colstore.OpenOptions{})
	if err != nil {
		return colstore.ScanStats{}, format, err
	}
	stats, err := Each(cur, emit)
	return stats, format, err
}

// ScanTrajectoryFile streams the samples of a trajectory file in either
// format that match pred to emit, in O(block) memory: OpenCursor drained row
// by row. The detected format is returned alongside the scan stats.
func ScanTrajectoryFile(path string, pred colstore.Predicate, emit func(trajectory.Sample)) (colstore.ScanStats, Format, error) {
	return scanFile(Trajectory, path, pred, emit)
}

// ReadTrajectoryFile loads a whole trajectory file in either format,
// reporting which format it detected.
func ReadTrajectoryFile(path string) ([]trajectory.Sample, Format, error) {
	var out []trajectory.Sample
	_, format, err := ScanTrajectoryFile(path, colstore.Predicate{}, func(s trajectory.Sample) { out = append(out, s) })
	return out, format, err
}

// ScanRSSIFile streams the measurements of an RSSI file in either format
// that match pred (time/object constraints) to emit.
func ScanRSSIFile(path string, pred colstore.Predicate, emit func(rssi.Measurement)) (colstore.ScanStats, Format, error) {
	return scanFile(RSSI, path, pred, emit)
}

// ReadRSSIFile loads a whole RSSI file in either format.
func ReadRSSIFile(path string) ([]rssi.Measurement, Format, error) {
	var out []rssi.Measurement
	_, format, err := ScanRSSIFile(path, colstore.Predicate{}, func(m rssi.Measurement) { out = append(out, m) })
	return out, format, err
}
