package bench

import (
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// Stamp says where a record row was measured: the machine's cores, the
// scheduler's, the toolchain and the code. A row is only comparable with
// rows that carry the same nproc and GOMAXPROCS.
type Stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// NewStamp stamps the running process.
func NewStamp() Stamp {
	return Stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}

// commit names the measured code: the VCS revision built into the binary
// or, under `go run`, which builds none in, the checkout's HEAD. A
// "+dirty" suffix marks uncommitted changes to tracked files.
func commit() string {
	rev, dirty := "", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev == "" {
		out, err := exec.Command("git", "rev-parse", "HEAD").Output()
		if err != nil {
			return "unknown"
		}
		rev = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
		dirty = err == nil && len(st) > 0
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
