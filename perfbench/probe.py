"""Set-up probe: import dgforge, generate one workload's inputs from a
seed and print their digest and the mean time of the speed probe
sampled meanwhile.  `run.py` times this script in fresh interpreters to
measure set-up time.

    python3 perfbench/probe.py pretr_laws 1
"""

import sys

from speed import SpeedSampler

if __name__ == "__main__":
    with SpeedSampler() as sampler:
        from run import digest, use_sources

        use_sources()
        import workloads

        generate, _ = workloads.WORKLOADS[sys.argv[1]]
        inputs = generate(int(sys.argv[2]))
    print(digest(inputs), sampler.mean())
