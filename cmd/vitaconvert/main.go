// Command vitaconvert converts Vita bulk data files between the CSV record
// format and the VTB columnar binary store, in either direction:
//
//	vitaconvert -in out/trajectory.vtb -out out/trajectory.csv
//	vitaconvert -in out/rssi.csv -out out/rssi.vtb
//
// The input encoding is detected by magic bytes; its record kind comes from
// the VTB header or, for CSV, from the header row (trajectory/estimate
// columns vs RSSI columns). The output encoding is chosen by the -out file
// extension (.csv or .vtb). VTB → CSV applies the CSV codec's 4-decimal
// quantization; every other direction is lossless, so a VTB → CSV
// conversion is byte-identical to having generated CSV directly.
//
// VTB output is always written under the default block codec (vsnap). VTB →
// VTB recompresses a file out of its era's codec — the migration path for
// flate-era archives, which readers still decode but nothing writes any
// more:
//
//	vitaconvert -in old/trajectory.vtb -out new/trajectory.vtb
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vita/internal/colstore"
	"vita/internal/rssi"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vitaconvert:", err)
		os.Exit(1)
	}
}

func run() error {
	in := flag.String("in", "", "input file (.csv or .vtb, detected by content)")
	out := flag.String("out", "", "output file; extension selects the format")
	flag.Parse()
	if *in == "" || *out == "" {
		return fmt.Errorf("both -in and -out are required")
	}

	outFormat, err := formatFromExt(*out)
	if err != nil {
		return err
	}
	ist, err := os.Stat(*in)
	if err != nil {
		return err
	}
	// Creating the output truncates it, so converting a file onto itself
	// would destroy the input before a row of it is read.
	if ost, err := os.Stat(*out); err == nil && os.SameFile(ist, ost) {
		return fmt.Errorf("-in %s and -out %s are the same file", *in, *out)
	}
	kind, err := detectKind(*in)
	if err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var rows int
	switch kind {
	case colstore.KindTrajectory:
		var w storage.RowWriter[trajectory.Sample] = colstore.NewTrajectoryWriter(bw, colstore.Options{})
		if outFormat == storage.FormatCSV {
			w, err = storage.NewTrajectoryCSVWriter(bw)
		}
		if err == nil {
			rows, err = convert(storage.Trajectory, *in, w)
		}
	case colstore.KindRSSI:
		var w storage.RowWriter[rssi.Measurement] = colstore.NewRSSIWriter(bw, colstore.Options{})
		if outFormat == storage.FormatCSV {
			w, err = storage.NewRSSICSVWriter(bw)
		}
		if err == nil {
			rows, err = convert(storage.RSSI, *in, w)
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(*out)
		return err
	}

	if ost, _ := os.Stat(*out); ost != nil {
		fmt.Printf("%s: %d %s rows, %d -> %d bytes (%.0f%%)\n",
			filepath.Base(*out), rows, kind, ist.Size(), ost.Size(),
			100*float64(ost.Size())/float64(ist.Size()))
	}
	return nil
}

func formatFromExt(path string) (storage.Format, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return storage.FormatCSV, nil
	case ".vtb":
		return storage.FormatVTB, nil
	default:
		return "", fmt.Errorf("cannot infer output format from %q: use a .csv or .vtb extension", path)
	}
}

// detectKind sniffs the record kind: the VTB header byte, or the CSV header
// row.
func detectKind(path string) (colstore.Kind, error) {
	kind, isVTB, err := colstore.Sniff(path)
	if err != nil {
		return 0, err
	}
	if isVTB {
		return kind, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	header, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("read CSV header of %s: %w", path, err)
	}
	switch strings.TrimSpace(header) {
	case strings.Join(storage.TrajectoryCSVHeader, ","):
		return colstore.KindTrajectory, nil
	case strings.Join(storage.RSSICSVHeader, ","):
		return colstore.KindRSSI, nil
	default:
		return 0, fmt.Errorf("unrecognized CSV header %q (want the trajectory/estimate or rssi columns)",
			strings.TrimSpace(header))
	}
}

// convert pipes the input file's rows through the one cursor straight into
// the output writer, so conversion runs in O(block) memory however large the
// file is, and stops reading the moment the output fails.
func convert[T any, B colstore.RowBatch[T]](k *storage.Kind[B], in string, w storage.RowWriter[T]) (int, error) {
	cur, _, err := storage.OpenCursor(k, in, colstore.Predicate{})
	if err != nil {
		return 0, err
	}
	return storage.Copy(cur, w)
}
