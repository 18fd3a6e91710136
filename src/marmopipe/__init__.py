"""marmopipe: tracer-image processing for serial two-photon stacks.

Submodules:

* ``imgcore``   image containers, file I/O, resampling, Gaussian filtering
* ``flatfield`` shading-field estimation and flat-field correction
* ``stitch``    tile layout, cropping, blending, stack assembly
* ``injsite``   injection-site localization and cell detection
* ``tracerseg`` classical tracer segmentation (thresholds + morphology)
* ``nnseg``     trainable U-Net backend (training, inference)
* ``mapping``   displacement-field resampling and connectivity tables
* ``evalsynth`` synthetic phantoms with ground truth, detection metrics
* ``cli``       batch pipeline driver and subcommands
"""

__version__ = "0.1.0"
