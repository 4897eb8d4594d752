"""UWB stripmap SAR simulator for foliage penetration.

Synthesizes cyclic-prefix OFDM and random-noise radar echoes from point
target scenes, passes them through a statistical foliage channel, forms
focused images with a range-Doppler chain, and quantifies sidelobe
performance (ISLR / PSLR).
"""

__version__ = "0.1.0"

from .echo import RawDataMatrix, SimulationConfig, apply_foliage, synthesize_raw
from .fileio import read_fimg, read_fsar, write_fimg, write_fsar
from .foliage import FoliageChannel, FoliageParams, fbm_path, mean_attenuation_db
from .geometry import (PlatformParams, PointTarget, RangeGrid, Scene, gm_vector,
                       make_grid)
from .imaging import (FocusedImage, RangeCompressedMatrix, azimuth_compress,
                      azimuth_fft, focus, range_compress_noise, range_compress_ofdm)
from .metrics import (NoPeakError, Profile, extract_profiles, image_metrics, islr,
                      mainlobe_width_3db, pslr, upsample_complex)
from .scenario import (Scenario, load_scenario, preset_scenario, run_metrics,
                       run_pipeline, tank_scenario, validate_scenario)
from .waveform import (OfdmSpec, generate_bpsk_symbols, generate_noise_pulse,
                       generate_ofdm_pulse)
