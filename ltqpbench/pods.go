package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"ltqp/internal/podserver"
	"ltqp/internal/solidbench"
)

// podEnv names the environment variable that turns the benchmark binary
// (or its test binary) into the pod process. Its value is the JSON of
// podParams.
const podEnv = "LTQPBENCH_POD_PROCESS"

// statsPath is served by the pod process beside the pods; requests to it
// are not counted as pod requests.
const statsPath = "/.ltqpbench/stats"

type podParams struct {
	Persons int           `json:"persons"`
	Seed    int64         `json:"seed"`
	Delay   time.Duration `json:"delay"`
	Small   bool          `json:"small"`
}

// podStats is what the pod process reports about itself.
type podStats struct {
	Requests int64 `json:"requests"`
	CPUNanos int64 `json:"cpu_ns"`
}

func datasetConfig(p podParams, host string) solidbench.Config {
	cfg := solidbench.DefaultConfig()
	if p.Small {
		cfg = solidbench.SmallConfig()
	}
	cfg.Persons, cfg.Seed, cfg.Host = p.Persons, p.Seed, host
	return cfg
}

// servePods is the pod process: it generates the dataset under its own
// listening address, serves it with a fixed per-response delay, prints the
// address once ready, and exits when its standard input closes, so it
// never outlives the benchmark.
func servePods(spec string) error {
	var p podParams
	if err := json.Unmarshal([]byte(spec), &p); err != nil {
		return fmt.Errorf("pod parameters: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	host := "http://" + ln.Addr().String()
	ps := podserver.New()
	ps.Latency = p.Delay
	for _, pod := range solidbench.Generate(datasetConfig(p, host)).BuildPods() {
		ps.AddPod(pod)
	}
	mux := http.NewServeMux()
	mux.Handle("/", ps)
	mux.HandleFunc(statsPath, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(podStats{Requests: ps.RequestCount(), CPUNanos: cpuNanos()})
	})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	fmt.Println(host)
	return http.Serve(ln, mux)
}

// live holds the pod processes that have been started and not yet
// stopped, so that an aborted run can stop them (stopAll).
var live struct {
	sync.Mutex
	pods map[*pods]bool
}

// stopAll stops every pod process still running.
func stopAll() {
	live.Lock()
	all := make([]*pods, 0, len(live.pods))
	for p := range live.pods {
		all = append(all, p)
	}
	live.Unlock()
	for _, p := range all {
		p.stop()
	}
}

// pods is the benchmark's handle on a running pod process.
type pods struct {
	host   string
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	client *http.Client
}

// startPods starts the pod process and waits until it serves.
func startPods(p podParams) (*pods, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec, _ := json.Marshal(p)
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), podEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pod process: %w", err)
	}
	pp := &pods{cmd: cmd, stdin: stdin}
	live.Lock()
	if live.pods == nil {
		live.pods = map[*pods]bool{}
	}
	live.pods[pp] = true
	live.Unlock()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		pp.stop()
		return nil, fmt.Errorf("pod process did not report its address: %w", err)
	}
	pp.host = strings.TrimSpace(line)
	pp.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     time.Minute,
	}}
	return pp, nil
}

func (p *pods) stats() (podStats, error) {
	var s podStats
	resp, err := p.client.Get(p.host + statsPath)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// stop ends the pod process and waits for it.
func (p *pods) stop() {
	live.Lock()
	running := live.pods[p]
	delete(live.pods, p)
	live.Unlock()
	if !running {
		return
	}
	if p.client != nil {
		p.client.CloseIdleConnections()
	}
	_ = p.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

// cpuNanos is the user plus system CPU time of this process.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
