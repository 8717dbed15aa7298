"""Workloads, layer tracing and host calibration of the EnviroTrack
end-to-end benchmark (driven by ``perfbench/run.py``)."""
