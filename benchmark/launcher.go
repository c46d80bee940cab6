package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// The launcher is a second copy of this binary, started before the harness
// allocates anything, whose only job is to start the dss-sort child processes
// and report their wall time and peak RSS.
//
// It exists because of how Linux accounts ru_maxrss: at exec the kernel folds
// the high-water mark of the address space the child is leaving into the
// child's own maximum, and Go starts children with CLONE_VM, so that address
// space is the parent's. A child of the harness — which holds the inputs and
// has run sorts — would report the harness's peak (a 1 GiB parent makes
// /bin/true "use" 1 GiB). The launcher never grows beyond a few MiB, so what
// it reports is the child's own peak.

const launcherEnv = "DSS_BENCHMARK_LAUNCHER"

// cliTimeout bounds one child process; a hung child is killed and counts as a
// failed operation.
const cliTimeout = 150 * time.Second

type launchRequest struct {
	Path string   `json:"path"`
	Args []string `json:"args"`
	Env  []string `json:"env"`
}

type launchReply struct {
	WallNS    int64  `json:"wall_ns"`
	MaxRSSKiB int64  `json:"max_rss_kib"`
	Err       string `json:"err,omitempty"`
}

// launcherMain serves requests from stdin until it closes.
func launcherMain() int {
	dec := json.NewDecoder(os.Stdin)
	enc := json.NewEncoder(os.Stdout)
	for {
		var req launchRequest
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return 0
			}
			fmt.Fprintln(os.Stderr, "launcher:", err)
			return 1
		}
		if err := enc.Encode(launch(req)); err != nil {
			fmt.Fprintln(os.Stderr, "launcher:", err)
			return 1
		}
	}
}

func launch(req launchRequest) launchReply {
	ctx, cancel := context.WithTimeout(context.Background(), cliTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, req.Path, req.Args...)
	cmd.Env = req.Env
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	reply := launchReply{WallNS: int64(time.Since(start))}
	if cmd.ProcessState != nil { // nil when the child never started
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			reply.MaxRSSKiB = ru.Maxrss
		}
	}
	if err != nil {
		tail := stderr.Bytes()
		if len(tail) > 400 {
			tail = tail[len(tail)-400:]
		}
		reply.Err = fmt.Sprintf("%v: %s", err, bytes.TrimSpace(tail))
	}
	return reply
}

// launcher is the harness's handle on the launcher process.
type launcher struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	enc *json.Encoder
	dec *json.Decoder
}

func startLauncher() (*launcher, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), launcherEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start launcher: %w", err)
	}
	return &launcher{cmd: cmd, in: in, enc: json.NewEncoder(in), dec: json.NewDecoder(out)}, nil
}

// run starts one child through the launcher and waits for it.
func (l *launcher) run(path string, args, env []string) (wall time.Duration, rssKiB int64, err error) {
	if err := l.enc.Encode(launchRequest{Path: path, Args: args, Env: env}); err != nil {
		return 0, 0, fmt.Errorf("launcher request: %w", err)
	}
	var reply launchReply
	if err := l.dec.Decode(&reply); err != nil {
		return 0, 0, fmt.Errorf("launcher reply: %w", err)
	}
	if reply.Err != "" {
		err = errors.New(reply.Err)
	}
	return time.Duration(reply.WallNS), reply.MaxRSSKiB, err
}

// stop closes the launcher's stdin, which ends it after the child it may
// still be running, and waits for it.
func (l *launcher) stop() error {
	l.in.Close()
	return l.cmd.Wait()
}
