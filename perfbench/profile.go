package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// frame is one function activation of a profile sample.
type frame struct {
	Func string // fully qualified name, e.g. xartrek/internal/exper.(*Platform).leastLoadedX86
	File string // source file (module-relative under -trimpath)
}

// sample is one CPU profile sample: its stack, leaf first, and the CPU
// time it stands for.
type sample struct {
	Stack []frame
	CPUNs int64
}

// attribute decodes a runtime/pprof CPU profile and sums its samples'
// CPU seconds into the named buckets (every bucket is present, zero or
// not).
func attribute(prof []byte) (map[string]float64, error) {
	samples, err := decodeProfile(prof)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(buckets))
	for _, b := range buckets {
		out[b] = 0
	}
	for _, s := range samples {
		out[classify(s.Stack)] += float64(s.CPUNs) / 1e9
	}
	return out, nil
}

// Runtime source files whose leaf time is garbage collection or heap
// allocation; other runtime time is charged to the nearest caller in
// this module (map lookups, copies and hashing are the caller's work)
// or, with none, to runtime.other.
var (
	gcFiles = set("mgc.go", "mgcmark.go", "mgcsweep.go", "mgcwork.go", "mgcpacer.go",
		"mgcscavenge.go", "mgcstack.go", "mgclimit.go", "mbarrier.go", "mwbbuf.go",
		"mbitmap.go", "mspanset.go", "mfinal.go", "mcheckmark.go")
	allocFiles = set("malloc.go", "mcache.go", "mcentral.go", "mheap.go", "mfixalloc.go",
		"mpagealloc.go", "mpagealloc_64bit.go", "mpagecache.go", "mpallocbits.go",
		"msize.go", "sizeclasses.go", "mem.go", "mem_linux.go", "mranges.go",
		"mstats.go", "slice.go")
)

func set(xs ...string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// pkgOf returns the import path of a qualified function name.
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// classify assigns a stack (leaf first) to exactly one bucket. The
// leaf-most frame that is either runtime GC/allocation code or code of
// this module decides; standard-library and other runtime frames above
// it are charged to that caller. A stack with neither is runtime.other
// when its leaf is in the runtime, and other otherwise.
func classify(stack []frame) string {
	for _, f := range stack {
		pkg := pkgOf(f.Func)
		base := path.Base(f.File)
		switch {
		case pkg == "runtime" && (gcFiles[base] || strings.HasPrefix(f.Func, "runtime.gc")):
			return "runtime.gc.self_s"
		case pkg == "runtime" && allocFiles[base]:
			return "runtime.alloc.self_s"
		case strings.HasPrefix(pkg, "xartrek/perfbench"):
			return "other.self_s"
		case pkg == "xartrek" || strings.HasPrefix(pkg, "xartrek/"):
			return moduleBucket(strings.TrimPrefix(pkg, "xartrek/"), base, f.Func)
		}
	}
	if len(stack) > 0 && isRuntime(pkgOf(stack[0].Func)) {
		return "runtime.other.self_s"
	}
	return "other.self_s"
}

// moduleBucket maps a frame of this module to its layer by package,
// and within internal/exper by source file, except for the
// entry-balancing, arrival-source and scheduler-callback functions
// that share files with the engine.
func moduleBucket(pkg, file, fn string) string {
	switch pkg {
	case "internal/simtime":
		switch file {
		case "psserver.go", "jobheap.go", "psserver_legacy.go":
			return "simtime.psserver.self_s"
		}
		return "simtime.events.self_s"
	case "internal/core/sched", "internal/core/threshold":
		return "sched.self_s"
	case "internal/tenancy":
		return "tenancy.self_s"
	case "internal/quantile":
		return "quantile.self_s"
	case "internal/faults":
		return "exper.faults.self_s"
	case "internal/elastic":
		return "exper.elastic.self_s"
	case "internal/cluster":
		return "cluster.self_s"
	case "internal/fpga", "internal/xrt", "internal/xclbin":
		return "fpga.self_s"
	case "internal/exper":
		return experBucket(file, fn)
	}
	return "other.self_s"
}

func experBucket(file, fn string) string {
	method := fn[strings.LastIndex(fn, "/")+1:]
	switch {
	case strings.Contains(method, "leastLoadedX86"), strings.Contains(method, "leastLoadedARM"),
		strings.Contains(method, ".armNode"):
		return "exper.entry.self_s"
	case strings.HasPrefix(method, "exper.NewPlatformTopo.func"):
		// The fleet callbacks (node load, cores, migration cost, link
		// queue) exist only for the scheduler's placement scans.
		return "sched.self_s"
	case strings.Contains(method, "poissonSource"), strings.Contains(method, "sliceSource"),
		strings.Contains(method, "tenantSource"), strings.Contains(method, "ServingConfig.arrivals"),
		strings.Contains(method, "ServingConfig.source"), file == "mmpp.go", file == "trace.go":
		return "exper.arrivals.self_s"
	case file == "latency.go", method == "exper.percentile":
		return "exper.digest.self_s"
	case file == "sharded.go":
		return "exper.shard.self_s"
	case file == "faultrun.go":
		return "exper.faults.self_s"
	case file == "elasticrun.go", file == "kneerun.go":
		return "exper.elastic.self_s"
	case file == "tenantrun.go":
		return "tenancy.self_s"
	}
	return "exper.engine.self_s"
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: each sample's stack
// (function name and file per frame, inlined frames expanded) and its
// cpu/nanoseconds value.
func decodeProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type line struct{ fn uint64 }
	type function struct{ name, file int64 }
	var (
		strs   []string
		funcs  = map[uint64]function{}
		locs   = map[uint64][]line{}
		raws   []rawSample
		nTypes int
	)
	err = forFields(raw, func(tag int, wire int, v uint64, b []byte) error {
		switch tag {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			var s rawSample
			if err := forFields(b, func(t, w int, v uint64, sub []byte) error {
				switch t {
				case 1:
					return appendVarints(&s.locs, w, v, sub)
				case 2:
					return appendVarints(&s.values, w, v, sub)
				}
				return nil
			}); err != nil {
				return err
			}
			raws = append(raws, s)
		case 4: // location
			var id uint64
			var lines []line
			if err := forFields(b, func(t, _ int, v uint64, sub []byte) error {
				switch t {
				case 1:
					id = v
				case 4:
					var l line
					if err := forFields(sub, func(t, _ int, v uint64, _ []byte) error {
						if t == 1 {
							l.fn = v
						}
						return nil
					}); err != nil {
						return err
					}
					lines = append(lines, l)
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = lines
		case 5: // function
			var id uint64
			var f function
			if err := forFields(b, func(t, _ int, v uint64, _ []byte) error {
				switch t {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = f
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// runtime/pprof CPU profiles carry [samples/count, cpu/nanoseconds].
	const cpuValue = 1
	if nTypes != 2 {
		return nil, fmt.Errorf("want 2 sample types in a CPU profile, got %d", nTypes)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]sample, 0, len(raws))
	for _, rs := range raws {
		if len(rs.values) <= cpuValue {
			return nil, errors.New("sample without a cpu value")
		}
		s := sample{CPUNs: int64(rs.values[cpuValue])}
		for _, id := range rs.locs {
			for _, l := range locs[id] {
				f := funcs[l.fn]
				s.Stack = append(s.Stack, frame{Func: str(f.name), File: str(f.file)})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// rawSample is a sample as encoded: location ids and values.
type rawSample struct{ locs, values []uint64 }

// forFields walks one protobuf message, calling f per field with the
// varint value (wire type 0) or the payload (wire type 2).
func forFields(b []byte, f func(tag, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		tag, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(tag, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends one repeated-varint field occurrence, packed
// (wire type 2) or not.
func appendVarints(dst *[]uint64, wire int, v uint64, packed []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
