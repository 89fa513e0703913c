package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuModules are the cpu.<m>_us_per_op buckets, in report order.
var cpuModules = []string{"core", "tls12", "enclave", "hsfast", "sessionhost", "tcpx", "mbapps",
	"crypto", "syscall", "gc", "other"}

// cpuStages are the relay's mbtls_stage pprof label values.
var cpuStages = []string{"relay", "pipeline-worker", "commit"}

// profileShares reads a runtime/pprof CPU profile and returns, for each
// cpuModules bucket and each cpuStages label, its share of all sampled
// CPU time. A sample goes to the bucket of its leaf frame's package,
// except that samples under the garbage collector's workers count as gc.
func profileShares(gz []byte) (modules, stages map[string]float64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, nil, err
	}
	modules, stages = map[string]float64{}, map[string]float64{}
	var total float64
	for _, s := range p.samples {
		v := float64(s.value)
		total += v
		var frames []string
		for _, loc := range s.locs {
			frames = append(frames, p.locFuncs[loc]...)
		}
		modules[cpuBucket(frames)] += v
		if st := s.labels["mbtls_stage"]; st != "" {
			stages[st] += v
		}
	}
	if total > 0 {
		for k := range modules {
			modules[k] /= total
		}
		for k := range stages {
			stages[k] /= total
		}
	}
	return modules, stages, nil
}

// gcRoots are runtime frames under which all work is garbage
// collection.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcAssistAlloc", "runtime.markroot", "runtime.sweepone"}

// runtimeSyscalls are runtime leaf functions that are system calls.
var runtimeSyscalls = map[string]bool{"runtime.futex": true, "runtime.epollwait": true, "runtime.usleep": true,
	"runtime.write1": true, "runtime.read": true, "runtime.madvise": true, "runtime.mmap": true,
	"runtime.munmap": true, "runtime.osyield": true}

// cpuBucket maps a stack (leaf first) to its cpuModules bucket.
func cpuBucket(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	for _, f := range frames {
		for _, r := range gcRoots {
			if f == r {
				return "gc"
			}
		}
	}
	leaf := frames[0]
	if runtimeSyscalls[leaf] {
		return "syscall"
	}
	pkg := funcPackage(leaf)
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		rest := strings.TrimPrefix(pkg, "repro/internal/")
		if rest == "transport/tcpx" {
			return "tcpx"
		}
		for _, m := range cpuModules[:7] {
			if rest == m {
				return m
			}
		}
	case pkg == "crypto" || strings.HasPrefix(pkg, "crypto/") || strings.Contains(pkg, "golang.org/x/crypto"):
		return "crypto"
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "runtime/internal/syscall" ||
		pkg == "internal/syscall/unix":
		return "syscall"
	}
	return "other"
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/core.(*Middlebox).handle".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the part of a pprof Profile message profileShares needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id → function names, leaf first
}

type profSample struct {
	locs   []uint64
	value  int64 // CPU nanoseconds
	labels map[string]string
}

// parseProfile decodes the protobuf encoding of a pprof Profile
// (github.com/google/pprof/proto/profile.proto), reading samples,
// locations, functions and the string table.
func parseProfile(b []byte) (*profile, error) {
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64
	}
	var (
		samples []rawSample
		strs    []string
		locLine = map[uint64][]uint64{} // location → function ids
		funcs   = map[uint64]int64{}    // function → name string index
	)
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendRepeated(s.locs, v, d)
				case 2:
					for _, x := range appendRepeated(nil, v, d) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := eachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 || lf == 2 {
							kv[lf-1] = int64(lv)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLine[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{locFuncs: map[uint64][]string{}}
	for id, fns := range locLine {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcs[f])
		}
		p.locFuncs[id] = names
	}
	for _, s := range samples {
		ps := profSample{locs: s.locs, labels: map[string]string{}}
		if len(s.values) > 1 {
			ps.value = s.values[1]
		} else if len(s.values) == 1 {
			ps.value = s.values[0]
		}
		for _, kv := range s.labels {
			ps.labels[str(kv[0])] = str(kv[1])
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField calls f for every field of a protobuf message: v carries
// varint values, data the bytes of length-delimited ones.
func eachField(b []byte, f func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := f(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated appends a repeated varint field, given either one
// unpacked value (data nil) or a packed run.
func appendRepeated(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) { return binary.Uvarint(b) }
