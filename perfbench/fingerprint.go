package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// fingerprint identifies the host and source a result was measured on.
// Results are comparable only when these agree.
type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
	DataFS     string `json:"data_fs"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func takeFingerprint(src, commit, dataDir string) fingerprint {
	return fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		L2:         cacheSize(2),
		L3:         cacheSize(3),
		DataFS:     fsType(dataDir),
		Commit:     commit,
		SourceHash: sourceHash(src),
	}
}

// cpuTicks returns the total and steal jiffies of all CPUs.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reads the size of cpu0's unified cache at level from sysfs.
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		ty, err2 := os.ReadFile(filepath.Join(d, "type"))
		sz, err3 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		if strings.TrimSpace(string(lv)) == fmt.Sprint(level) && strings.TrimSpace(string(ty)) != "Instruction" {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// sourceHash hashes every Go source and module file under src, so two
// results name the code they measured even outside a git checkout.
func sourceHash(src string) string {
	if src == "" {
		return "unknown"
	}
	var files []string
	filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != src {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(src, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// compareMain implements "perfbench compare A B": each file holds the
// standard output of one run. It prints every metric of B against A and
// warns when the fingerprints differ in anything but the source.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.out NEW.out")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		return fatal(err)
	}
	b, err := readResult(args[1])
	if err != nil {
		return fatal(err)
	}
	fa, fb := a.Fingerprint, b.Fingerprint
	fa.Commit, fb.Commit, fa.SourceHash, fb.SourceHash = "", "", "", ""
	if fa != fb {
		ja, _ := json.Marshal(fa)
		jb, _ := json.Marshal(fb)
		fmt.Printf("WARNING: host fingerprints differ; the comparison is not like for like\n  base %s\n  new  %s\n", ja, jb)
	}
	if a.Workload != b.Workload || a.Traced != b.Traced {
		fmt.Printf("WARNING: comparing %s (traced=%v) with %s (traced=%v)\n", a.Workload, a.Traced, b.Workload, b.Traced)
	}
	names := make([]string, 0, len(b.Metrics))
	for n := range b.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mb := b.Metrics[n]
		ma, ok := a.Metrics[n]
		if !ok {
			fmt.Printf("  %-28s %14.6g %s (new)\n", n, mb.Value, mb.Unit)
			continue
		}
		delta := "n/a"
		if ma.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Printf("  %-28s %14.6g -> %14.6g %-8s %s\n", n, ma.Value, mb.Value, mb.Unit, delta)
	}
	return 0
}

// readResult returns the last "result" line of a run's standard output.
func readResult(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "result ") {
			last = strings.TrimPrefix(line, "result ")
		}
	}
	if last == "" {
		return nil, fmt.Errorf("%s: no result line", path)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
